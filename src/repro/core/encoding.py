"""SMT encoding of the SynColl synthesis problem (Section 3.4).

:class:`ScclEncoding` is the paper's scalable encoding.  It splits the send
set ``T`` into per-(chunk, node) arrival *times* and step-less send
Booleans, exactly as described in Section 3.4:

- ``time[c, n]`` — an order-encoded integer giving the earliest step at
  which chunk ``c`` is available on node ``n``.  ``S+1`` means "never
  within this algorithm"; the domain is only what the instance leaves
  open — the constant 0 on a precondition node, otherwise from the
  chunk's graph distance up to ``S`` where an unconditional
  postcondition owes the chunk and ``S+1`` elsewhere,
- ``snd[n, c, n']`` — a Boolean saying node ``n`` sends chunk ``c`` to
  ``n'`` at some step,
- ``r[s]`` — the number of rounds performed in step ``s``.

Constraints C1–C6 from the paper are asserted over these variables;
comparisons the domains already decide never become clauses.  Two
redundant parts prune the search: an instance a single node's in- or
out-cut refutes (more chunks must cross than ``capacity × R``) is
answered with the empty clause and a :class:`~repro.core.bounds.Cut`
witness — before any distance table is built — and interchangeable
chunks (same pre- and post-condition nodes) arrive in id order at one
node that owes them.  The
role Z3's theory of linear integer arithmetic plays in the paper is
played here by the order encoding plus cardinality/totalizer encoders
(:mod:`repro.solver.encoders`), which is an exact finite-domain
compilation of the same constraints.

The encoding writes CNF directly: it owns a
:class:`~repro.solver.cnf.CNF` (``.cnf``) whose first variable is an
always-true literal, builds bounded integers and cardinality constraints
with :class:`~repro.solver.intvar.IntVar` and :mod:`repro.solver.encoders`,
and exposes ``encode()``, which builds the formula into ``.cnf`` and
returns the encoder, and ``decode(model)``, which maps a satisfying
assignment back to an :class:`~repro.core.algorithm.Algorithm`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..collectives import get_collective
from ..solver import CNF, IntVar, encoders, unary_sum_equals
from ..topology import shortest_path_lengths
from .algorithm import Algorithm, Send, Step
from .bounds import Cut, iter_cuts
from .instance import SynCollInstance

Link = Tuple[int, int]
#: A chunk's sorted source nodes and sorted needer nodes: chunks with equal
#: classes are interchangeable and share every distance row.
ChunkClass = Tuple[Tuple[int, ...], Tuple[int, ...]]
#: Per node, hops from the nearest source / to the nearest needer (None: no path).
Rows = Tuple[List[Optional[int]], List[Optional[int]]]


class EncodingError(Exception):
    """Raised when an instance cannot be encoded (e.g. unreachable chunk)."""


def _new_formula() -> Tuple[CNF, int]:
    """An empty formula and its always-true literal, asserted by a unit clause.

    Comparisons a bounded integer's domain settles come back as this
    literal or its negation (:meth:`IntVar.ge_lit`).
    """
    cnf = CNF()
    true = cnf.new_var()
    cnf.add_clause([true])
    return cnf, true


def _chunk_classes(instance: SynCollInstance) -> List[ChunkClass]:
    """The class of each chunk under ``instance``'s placements."""
    sources: List[List[int]] = [[] for _ in range(instance.num_chunks)]
    needers: List[List[int]] = [[] for _ in range(instance.num_chunks)]
    for (chunk, node) in instance.precondition:
        sources[chunk].append(node)
    for (chunk, node) in instance.postcondition:
        needers[chunk].append(node)
    return [(tuple(sorted(s)), tuple(sorted(n))) for s, n in zip(sources, needers)]


def _class_rows(distances: Dict[int, Dict[int, int]], num_nodes: int, key: ChunkClass) -> Rows:
    sources, needers = key
    reach: List[Optional[int]] = [None] * num_nodes
    for src in sources:
        for node, d in distances[src].items():
            best = reach[node]
            if best is None or d < best:
                reach[node] = d
    need: List[Optional[int]] = [None] * num_nodes
    for node in range(num_nodes):
        row = distances[node]
        for dst in needers:
            d = row.get(dst)
            if d is not None:
                best = need[node]
                if best is None or d < best:
                    need[node] = d
    return reach, need


class PrefixAnalysis:
    """Chunk-reachability rows shared across a family of encodings.

    The distance rows the encoder prunes with depend only on the topology
    and on a chunk's class — its pre- and post-condition nodes — never on
    the chunk id, the collective, the root, the step count ``S`` or the
    rounds budget ``R``.  One ``PrefixAnalysis`` therefore serves every
    encoding on its fabric: the rows of a class are computed the first time
    an instance has a chunk of it and kept (:meth:`ensure`), so ``C``
    interchangeable chunks cost one row, and a second collective or root on
    the same analysis computes only the classes it adds.  The all-pairs
    shortest paths are a fact of the topology
    (:meth:`~repro.topology.Topology.fact`): computed once per fabric state,
    shared, never mutated.
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        self.rows: Dict[ChunkClass, Rows] = {}

    def check(self, topology) -> None:
        """Raise unless ``topology`` has this analysis's link structure."""
        # The rows depend on the link structure, so identity of name alone is
        # not enough — a same-named topology with different links would
        # silently poison the pruning.
        if topology is not self.topology and (
            topology.num_nodes != self.topology.num_nodes
            or topology.links() != self.topology.links()
        ):
            raise EncodingError(
                f"analysis built for topology {self.topology.name!r} cannot "
                f"serve the structurally different {topology.name!r}"
            )

    def ensure(self, instance: SynCollInstance) -> List[ChunkClass]:
        """The classes of ``instance``'s chunks, each with its rows."""
        self.check(instance.topology)
        classes = _chunk_classes(instance)
        rows = self.rows
        missing = [key for key in dict.fromkeys(classes) if key not in rows]
        if missing:
            distances = self.topology.fact(shortest_path_lengths)
            for key in missing:
                rows[key] = _class_rows(distances, self.topology.num_nodes, key)
        return classes


@dataclass
class EncodingStats:
    """Size statistics reported with every result."""

    variables: int = 0
    clauses: int = 0
    #: Send Booleans.
    send_vars: int = 0
    #: Order-encoded ``time[c, n]`` IntVars, one per (chunk, node).
    time_vars: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "variables": self.variables,
            "clauses": self.clauses,
            "send_vars": self.send_vars,
            "time_vars": self.time_vars,
        }


def _sorted_links(topology) -> List[Link]:
    return sorted(topology.links())


def _shared_links(topology) -> FrozenSet[Link]:
    """Links listed more than once over the bandwidth constraints."""
    counts = Counter(link for constraint in topology.constraints for link in constraint.links)
    return frozenset(link for link, count in counts.items() if count > 1)


class _ClassPlan:
    """What every chunk of one class shares within one encoding (fixed ``S``).

    ``key`` is the class; ``links`` the sends worth a variable (all links
    without pruning) in sorted order — a chunk's send literals are one block
    in this order; ``incoming[n]`` the positions of the links into ``n`` (in
    in-neighbour order); ``counted``, per bandwidth constraint with such a
    link, its index and the positions of its links (in the constraint's
    order); ``domains[n]`` the ``time[c, n]`` domain; ``receivers`` the
    nodes that do not hold the chunk at start.
    """

    __slots__ = ("key", "links", "incoming", "counted", "domains", "receivers")

    def __init__(
        self, key: ChunkClass, rows: Rows, topology, steps: int, prune: bool,
        owed_by_S: bool,
    ) -> None:
        S = steps
        num_nodes = topology.num_nodes
        sources, needers = key
        reach, need = rows
        links = topology.fact(_sorted_links)
        if prune:
            links = [link for link in links if _send_useful(reach, need, *link, S)]
        self.key = key
        self.links = links
        index = {link: i for i, link in enumerate(links)}
        incoming: List[List[int]] = [[] for _ in range(num_nodes)]
        for i, (_, dst) in enumerate(links):
            incoming[dst].append(i)
        self.incoming = incoming
        self.counted: List[Tuple[int, List[int]]] = []
        for ci, constraint in enumerate(topology.constraints):
            positions = [index[link] for link in constraint.links if link in index]
            if positions:
                self.counted.append((ci, positions))
        held, owed = set(sources), set(needers)
        domains: List[Tuple[int, int]] = []
        for node in range(num_nodes):
            if node in held:
                domains.append((0, 0))  # C1
            elif not incoming[node]:
                # No send can deliver it: S+1, "not present within the
                # algorithm".  If the node is owed the chunk, C2 refutes.
                domains.append((S + 1, S + 1))
            else:
                # A chunk cannot arrive earlier than its graph distance; an
                # unconditional postcondition ends the domain at S.
                domains.append((
                    reach[node] if prune else 0,
                    S if owed_by_S and node in owed else S + 1,
                ))
        self.domains = domains
        self.receivers = [node for node in range(num_nodes) if node not in held]


def _send_useful(
    reach: List[Optional[int]], need: List[Optional[int]], src: int, dst: int, S: int
) -> bool:
    """Whether a send over ``src -> dst`` can appear in a valid schedule."""
    reach_src = reach[src]
    if reach_src is None or reach_src + 1 > S:
        return False
    # After arriving at dst (taking at least reach_src + 1 steps), the
    # chunk must still be able to serve some node that needs it.
    useful_at = need[dst]
    reach_dst = reach[dst]
    if useful_at is None or reach_dst == 0:  # dead end, or dst holds it already
        return False
    earliest_arrival = max(reach_dst, reach_src + 1)
    return earliest_arrival + useful_at <= S


class ScclEncoding:
    """The paper's time/send split encoding of a SynColl instance.

    With ``rounds_budget`` set (to some ``R_max >= instance.rounds``) the
    encoding becomes *rounds-incremental*: the per-step round variables are
    given the widened domain ``1 .. R_max - (S - 1)``, the hard total-rounds
    constraint C6 is replaced by a pair of unary counters over the round
    variables' order-encoding Booleans, and :meth:`rounds_assumptions`
    returns assumption literals pinning the total to any ``R`` in
    ``S .. R_max``.  One encoding (and one solver, via
    :class:`repro.engine.dispatch.FamilyExecutor`) then serves every
    rounds candidate of a fixed-``S`` sweep.

    With ``chunk_selector=True`` the encoding additionally becomes
    *chunks-incremental* (the shared-prefix form): the instance's per-node
    chunk count acts as a budget ``C_max``, each chunk level ``l`` (the
    global chunks appended when ``C`` grows from ``l - 1`` to ``l``) gets
    an enable literal, postconditions are guarded by their level's enable,
    and every send variable implies its level's enable.
    :meth:`chunks_assumptions` then pins the effective per-node chunk count
    to any ``C <= C_max``: disabled levels cannot send, owe no
    postcondition, and contribute nothing to the bandwidth counts (their
    activation literals are free to be false), so satisfiability under a
    ``(C, R)`` assumption frame coincides with a cold encode of the
    ``(S, C, R)`` instance.  This relies on the Table 1 relations being
    prefix-stable in ``C``: the chunks of a smaller count keep their
    placements under a larger one.  The formula is built once, at its
    budgets; a frame outside them would need a new encoding, which
    :class:`repro.engine.dispatch.FamilyExecutor` never builds: it sizes
    the budgets from the probes it will be asked for.

    :meth:`encode` of the plain form answers an instance a single-node cut
    refutes before it builds any table.  Otherwise what chunks of one class
    share — useful links, time domains, incoming links — is derived once
    per class from ``analysis``'s rows, which any number of encodings on
    the same fabric may share (:class:`PrefixAnalysis`), and each chunk's
    variables are allocated as blocks.
    """

    def __init__(
        self,
        instance: SynCollInstance,
        prune: bool = True,
        rounds_budget: Optional[int] = None,
        chunk_selector: bool = False,
        analysis: Optional[PrefixAnalysis] = None,
    ) -> None:
        if rounds_budget is not None and rounds_budget < instance.rounds:
            raise EncodingError(
                f"rounds budget {rounds_budget} is below the instance rounds "
                f"{instance.rounds}"
            )
        self.instance = instance
        self.prune = prune
        self.rounds_budget = rounds_budget
        self.chunk_selector = chunk_selector
        self.analysis = analysis if analysis is not None else PrefixAnalysis(instance.topology)
        self.cnf, self.true_lit = _new_formula()
        #: Set by :meth:`encode` when a single node's in- or out-cut refutes
        #: the instance; the formula is then just the empty clause.
        self.cut_witness: Optional[Cut] = None
        self.round_vars: List[IntVar] = []
        self.stats = EncodingStats()
        self._encoded = False
        # Unary counters for the rounds-budget selector layer:
        # _count_ge[j] is true when at least j+1 round-encoding Booleans are
        # true, _false_ge[j] when at least j+1 are false.
        self._round_bools: List[int] = []
        self._count_ge: List[int] = []
        self._false_ge: List[int] = []
        # Chunk-selector layer: one enable literal per chunk level and the
        # level index of each global chunk.
        self._level_lits: List[int] = []
        self._chunk_level: List[int] = []
        # Variables populated by encode(), per chunk id: the plan of its
        # class, its first send literal (its sends are one block in
        # plan.links order) and its time[c, n] variables by node.
        self._chunk_plans: List[_ClassPlan] = []
        self._send_base: List[int] = []
        self._times: List[List[IntVar]] = []

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self) -> "ScclEncoding":
        """Build the formula into :attr:`cnf` (once) and return the encoder."""
        if self._encoded:
            return self
        instance = self.instance
        cnf = self.cnf
        S = instance.steps
        R = instance.rounds
        topology = instance.topology
        self.analysis.check(topology)

        # --- cut arithmetic: refute before building any table -----------------------
        # Only the plain form: a budgeted or chunk-selector formula serves
        # many (C, R) frames and one frame's cut says nothing about the rest.
        if self.rounds_budget is None and not self.chunk_selector:
            for cut in iter_cuts(topology, instance.precondition, instance.postcondition):
                if cut.refutes(R):
                    self.cut_witness = cut
                    cnf.add_clause_fast([])
                    self._refresh_stats()
                    self._encoded = True
                    return self

        if self.chunk_selector:
            self._encode_levels()

        # --- time[c, n] and snd[c, src, dst] variables -----------------------------
        self._encode_placement_vars()

        # --- r[s] round variables ---------------------------------------------------
        # Rounds are per-step; each step performs at least one round (steps
        # that send nothing are never useful because Algorithm 1 enumerates
        # S from its lower bound upward).  Under a rounds budget the domain
        # is widened to the budget so the same variables serve every R.
        budget = self.rounds_budget if self.rounds_budget is not None else R
        min_rounds = 1 if budget >= S else 0
        for s in range(S):
            self.round_vars.append(IntVar(
                cnf, min_rounds, budget - (S - 1) * min_rounds, self.true_lit,
                name=f"rounds_{s}",
            ))

        # --- C1-C5 -------------------------------------------------------------------
        self._encode_chunk_constraints()
        self._encode_bandwidth()

        # --- C6: total rounds -----------------------------------------------------------
        if self.rounds_budget is None:
            unary_sum_equals(cnf, self.round_vars, R)
        else:
            self._build_rounds_selector()

        self._refresh_stats()
        self._encoded = True
        return self

    def _emit(self, lits: Sequence[int]) -> None:
        """Add a clause, simplified against the constant literals.

        Comparisons a time variable's domain decides come back as the
        formula's constant true/false literal; a clause holding a true one
        is dropped and false ones are left out, so nothing the domains
        already settle reaches the solver.
        """
        true = self.true_lit
        clause = []
        for lit in lits:
            if lit == true:
                return
            if lit != -true:
                clause.append(lit)
        self.cnf.add_clause_fast(clause)

    def _encode_placement_vars(self) -> None:
        """Time and send variables (plus selector guards) for every chunk."""
        cnf, true = self.cnf, self.true_lit
        instance = self.instance
        classes = self.analysis.ensure(instance)
        plans = {
            key: _ClassPlan(
                key, self.analysis.rows[key], instance.topology, instance.steps,
                self.prune, owed_by_S=not self.chunk_selector,
            )
            for key in dict.fromkeys(classes)
        }
        chunk_plans = self._chunk_plans = [plans[key] for key in classes]
        self._times = [
            [IntVar(cnf, first, last, true) for (first, last) in plan.domains]
            for plan in chunk_plans
        ]
        for chunk, plan in enumerate(chunk_plans):
            self._send_base.append(cnf.num_vars + 1)
            block = cnf.new_vars(len(plan.links))
            if self.chunk_selector:
                # A send of a disabled chunk level is forbidden, so a
                # frame assumption cleanly zeroes the level out.
                enable = self._level_lits[self._chunk_level[chunk]]
                cnf.add_clauses_fast([[-lit, enable] for lit in block])

    def _encode_chunk_constraints(self) -> None:
        """Constraints C2-C4 and the symmetry order.

        C1 is the constant-0 domain of the precondition nodes' time
        variables (:meth:`_encode_placement_vars`).
        """
        cnf, true = self.cnf, self.true_lit
        instance = self.instance
        S = instance.steps
        times = self._times
        chunk_range = range(instance.num_chunks)
        plans = self._chunk_plans
        bases = self._send_base

        # --- C2: postconditions -----------------------------------------------------
        for (chunk, node) in instance.postcondition:
            held = times[chunk][node].le_lit(S)
            if self.chunk_selector:
                # The postcondition only binds while the chunk's level is on.
                self._emit([-self._level_lits[self._chunk_level[chunk]], held])
            else:
                self._emit([held])

        # --- C3: unique reception ----------------------------------------------------
        for chunk, plan, base in zip(chunk_range, plans, bases):
            row = times[chunk]
            for node in plan.receivers:
                present = row[node].le_lit(S)
                incoming = [base + i for i in plan.incoming[node]]
                # present -> exactly one incoming send (with none the chunk
                # never arrives; owing it anyway makes the instance UNSAT)
                self._emit([-present] + incoming)
                if len(incoming) > 1:
                    encoders.at_most_one(cnf, incoming)
                # any incoming send -> present within S steps
                if present != true and incoming:
                    cnf.add_clauses_fast([[-lit, present] for lit in incoming])

        # --- C4: causality ------------------------------------------------------------
        # snd ∧ time_dst <= s  ->  time_src <= s - 1, for s from time_dst's
        # lower end (below it the premise is false) up to S and time_src's
        # upper end (from there on the conclusion is true).  In the order
        # encoding, time_dst <= s is -ge[s + 1] (true from time_dst.hi on)
        # and time_src <= s - 1 is -ge[s] (false up to time_src.lo).
        clauses: List[List[int]] = []
        emit = clauses.append
        for chunk, plan, base in zip(chunk_range, plans, bases):
            row = times[chunk]
            for i, (src, dst) in enumerate(plan.links):
                not_sent = -(base + i)
                time_src, time_dst = row[src], row[dst]
                src_lo, src_ge = time_src.lo, time_src._ge
                dst_hi, dst_ge = time_dst.hi, time_dst._ge
                for s in range(time_dst.lo, min(S, time_src.hi) + 1):
                    if s < dst_hi:
                        if s > src_lo:
                            emit([not_sent, dst_ge[s + 1], -src_ge[s]])
                        else:
                            emit([not_sent, dst_ge[s + 1]])
                    elif s > src_lo:
                        emit([not_sent, -src_ge[s]])
                    else:
                        emit([not_sent])
        cnf.add_clauses_fast(clauses)

        # --- symmetry: interchangeable chunks arrive in id order ---------------------
        clauses = []
        tail: Dict[ChunkClass, int] = {}  # the highest chunk id so far per class
        for chunk, plan in zip(chunk_range, plans):
            key = plan.key
            previous = tail.get(key)
            tail[key] = chunk
            sources, needers = key
            owing = set(needers) - set(sources)
            if previous is None or not owing:
                continue
            # One node suffices to order the class; which one is a search
            # heuristic (the highest-numbered measured best on probe_rows).
            node = max(owing)
            time_a = times[previous][node]
            time_b = times[chunk][node]
            # time_b <= s  ->  time_a <= s, i.e. ge_b[s + 1] ∨ -ge_a[s + 1],
            # each side settled outside its variable's domain.
            for s in range(S + 1):
                if s < time_b.lo or s >= time_a.hi:
                    continue  # premise false or conclusion true
                clause = [] if s >= time_b.hi else [time_b._ge[s + 1]]
                if s >= time_a.lo:
                    clause.append(-time_a._ge[s + 1])
                clauses.append(clause)
        cnf.add_clauses_fast(clauses)

    def _encode_bandwidth(self) -> None:
        """Constraint C5: per-step bandwidth counts.

        A send counts at step ``s`` through its activation literal
        ``a[c, (src, dst), s]``: ``(snd ∧ time_dst == s) -> a``, only this
        direction because activations appear in upper bounds.  Where the
        arrival step is fixed the send is its own activation; a link listed
        by several constraints shares one activation literal among them.
        """
        cnf = self.cnf
        S = self.instance.steps
        topology = self.instance.topology
        shared = topology.fact(_shared_links)
        # Per constraint and step, the sends that may arrive then, chunk-then-
        # link: the send itself where its arrival step is fixed, else the
        # body of its activation clause, completed by the literal below.
        candidates: List[List[List[Tuple[int, Optional[List[int]], bool]]]] = [
            [[] for _ in range(S + 1)] for _ in topology.constraints
        ]
        for plan, base, row in zip(self._chunk_plans, self._send_base, self._times):
            links = plan.links
            for ci, positions in plan.counted:
                steps = candidates[ci]
                for i in positions:
                    snd = base + i
                    link = links[i]
                    time_dst = row[link[1]]
                    t_lo, t_hi, ge = time_dst.lo, time_dst.hi, time_dst._ge
                    if t_lo == t_hi:
                        if 1 <= t_lo <= S:
                            steps[t_lo].append((snd, None, False))
                        continue
                    is_shared = link in shared
                    steps[t_lo].append((snd, [-snd, ge[t_lo + 1]], is_shared))
                    for s in range(t_lo + 1, min(t_hi, S + 1)):
                        steps[s].append((snd, [-snd, -ge[s], ge[s + 1]], is_shared))
                    if t_hi <= S:
                        steps[t_hi].append((snd, [-snd, -ge[t_hi]], is_shared))
        made: Dict[Tuple[int, int], int] = {}   # (send, step) -> activation
        for ci, constraint in enumerate(topology.constraints):
            b = constraint.bandwidth
            steps = candidates[ci]
            for s in range(1, S + 1):
                terms: List[int] = []
                clauses: List[List[int]] = []
                for snd, body, is_shared in steps[s]:
                    if body is None:
                        terms.append(snd)
                        continue
                    if is_shared:
                        a = made.get((snd, s))
                        if a is not None:
                            terms.append(a)
                            continue
                    cnf.num_vars += 1
                    a = cnf.num_vars
                    body.append(a)
                    clauses.append(body)
                    terms.append(a)
                    if is_shared:
                        made[(snd, s)] = a
                cnf.add_clauses_fast(clauses)
                if not terms:
                    continue
                r_s = self.round_vars[s - 1]
                if r_s.lo == r_s.hi:
                    # Fixed round count: a plain cardinality constraint.
                    encoders.at_most_k(cnf, terms, b * r_s.lo)
                    continue
                # count <= b * r_s with a variable r_s: build unary counts and
                # link each threshold to the order encoding of r_s:
                #   count >= b*j + 1  ->  r_s >= j + 1
                bound = min(len(terms), b * r_s.hi + 1)
                outputs = encoders.totalizer(cnf, terms, bound=bound)
                cnf.add_clauses_fast([
                    [-outputs[b * j], r_s.ge_lit(j + 1)]
                    for j in range(0, r_s.hi + 1)
                    if b * j < len(outputs)
                ])

    def _refresh_stats(self) -> None:
        self.stats.variables = self.cnf.num_vars
        self.stats.clauses = self.cnf.num_clauses
        self.stats.send_vars = sum(len(plan.links) for plan in self._chunk_plans)
        self.stats.time_vars = len(self._times) * self.instance.topology.num_nodes

    # ------------------------------------------------------------------
    # Chunk-selector layer (shared-prefix form)
    # ------------------------------------------------------------------
    def _encode_levels(self) -> None:
        """Enable literals and the chunk -> level map up to the chunk budget."""
        spec = get_collective(self.instance.collective)
        nodes = self.instance.topology.num_nodes
        for level in range(1, self.instance.chunks_per_node + 1):
            lit = self.cnf.new_var()  # chunks_per_node >= level
            if self._level_lits:
                # Enabled levels form a prefix: level l on implies l-1 on,
                # so a frame needs only two assumption literals.
                self.cnf.add_clause_fast([-lit, self._level_lits[-1]])
            self._level_lits.append(lit)
            for _ in range(spec.global_chunks(nodes, level) - len(self._chunk_level)):
                self._chunk_level.append(level - 1)

    def chunks_assumptions(self, chunks_per_node: int) -> List[int]:
        """Assumption literals enabling exactly the first ``chunks_per_node`` levels."""
        if not self.chunk_selector:
            raise EncodingError("chunks_assumptions requires a chunk_selector encoding")
        if not self._encoded:
            raise EncodingError("encode() must be called before chunks_assumptions()")
        if not 1 <= chunks_per_node <= self.instance.chunks_per_node:
            raise EncodingError(
                f"chunk count {chunks_per_node} outside the encoded budget "
                f"[1, {self.instance.chunks_per_node}]"
            )
        assumptions = [self._level_lits[chunks_per_node - 1]]
        if chunks_per_node < len(self._level_lits):
            # The monotone chain turns this into "all higher levels off".
            assumptions.append(-self._level_lits[chunks_per_node])
        return assumptions

    def frame_assumptions(self, chunks_per_node: int, rounds: int) -> List[int]:
        """The per-``(C, R)`` assumption frame for one lattice candidate."""
        assumptions = self.chunks_assumptions(chunks_per_node)
        if self.rounds_budget is not None:
            assumptions.extend(self.rounds_assumptions(rounds))
        elif rounds != self.instance.rounds:
            raise EncodingError(
                f"rounds {rounds} differs from the encoded total "
                f"{self.instance.rounds} and no rounds budget was requested"
            )
        return assumptions

    # ------------------------------------------------------------------
    # Rounds-budget selector layer
    # ------------------------------------------------------------------
    def _build_rounds_selector(self) -> None:
        """Unary counters that let assumptions pin the total round count.

        Each round variable contributes ``value - lo`` true Booleans in its
        order encoding, so ``total_rounds = sum(lo) + count_true``.  The
        project totalizer only encodes the "count >= j implies output"
        direction, which supports *upper* bounds by assuming an output
        false; the matching *lower* bound comes from a second totalizer
        over the negated Booleans (count_false <= n - q iff count_true >= q).
        """
        bools: List[int] = []
        for rv in self.round_vars:
            bools.extend(rv.booleans())
        self._round_bools = bools
        if bools:
            self._count_ge = encoders.totalizer(self.cnf, bools)
            self._false_ge = encoders.totalizer(self.cnf, [-lit for lit in bools])

    def rounds_assumptions(self, rounds: int) -> List[int]:
        """Assumption literals forcing ``total_rounds == rounds``.

        Only available when the encoding was built with a ``rounds_budget``;
        ``rounds`` must lie within ``S .. rounds_budget``.
        """
        if self.rounds_budget is None:
            raise EncodingError("rounds_assumptions requires a rounds_budget encoding")
        if not self._encoded:
            raise EncodingError("encode() must be called before rounds_assumptions()")
        S = self.instance.steps
        if not S <= rounds <= self.rounds_budget:
            raise EncodingError(
                f"rounds {rounds} outside the encoded budget [{S}, {self.rounds_budget}]"
            )
        offset = sum(rv.lo for rv in self.round_vars)
        target = rounds - offset  # Booleans that must be true
        n = len(self._round_bools)
        if target < 0 or target > n:
            raise EncodingError(
                f"rounds {rounds} unreachable with {n} round Booleans (offset {offset})"
            )
        assumptions: List[int] = []
        # count_true <= target: at least target+1 true is forbidden.
        if target < len(self._count_ge):
            assumptions.append(-self._count_ge[target])
        # count_true >= target, i.e. count_false <= n - target.
        if n - target < len(self._false_ge):
            assumptions.append(-self._false_ge[n - target])
        return assumptions

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self,
        model: Dict[int, bool],
        name: Optional[str] = None,
        *,
        instance: Optional[SynCollInstance] = None,
    ) -> Algorithm:
        """Turn a satisfying assignment into an :class:`Algorithm` (Q, T).

        ``instance`` selects the frame to decode against: a chunk-selector
        encoding solved under :meth:`frame_assumptions` passes the framed
        ``(S, C, R)`` instance here, and sends of disabled chunk levels
        (which the frame forced false) are skipped.
        """
        if not self._encoded:
            raise EncodingError("encode() must be called before decode()")
        if instance is None:
            instance = self.instance
        elif instance.num_chunks > self.instance.num_chunks or (
            instance.steps != self.instance.steps
        ):
            raise EncodingError(
                f"frame instance {instance.describe()!r} is not a chunk prefix "
                f"of the encoded instance {self.instance.describe()!r}"
            )
        S = instance.steps
        rounds = [rv.value(model) for rv in self.round_vars]
        sends_by_step: List[List[Send]] = [[] for _ in range(S)]
        # Chunks past the frame's are a disabled level of a chunk-selector
        # encoding.
        for chunk in range(instance.num_chunks):
            base, row = self._send_base[chunk], self._times[chunk]
            for i, (src, dst) in enumerate(self._chunk_plans[chunk].links):
                if not model.get(base + i, False):
                    continue
                arrival = row[dst].value(model)
                if arrival > S:
                    # A send that never takes effect; drop it (it cannot appear
                    # in a minimal model but nothing in the constraints forbids it).
                    continue
                if arrival < 1:
                    raise EncodingError(
                        f"model places arrival of chunk {chunk} at node {dst} at step 0 "
                        f"despite not being in the precondition"
                    )
                sends_by_step[arrival - 1].append(Send(chunk=chunk, src=src, dst=dst))
        steps = [
            Step(rounds=rounds[s], sends=tuple(sorted(
                sends_by_step[s], key=lambda x: (x.src, x.dst, x.chunk)
            )))
            for s in range(S)
        ]
        total_rounds = sum(rounds)  # equals instance.rounds unless budget-encoded
        algorithm = Algorithm(
            name=name
            or f"{instance.collective.lower()}_{instance.topology.name}_c{instance.chunks_per_node}"
            f"_s{S}_r{total_rounds}",
            collective=instance.collective,
            topology=instance.topology,
            chunks_per_node=instance.chunks_per_node,
            num_chunks=instance.num_chunks,
            precondition=instance.precondition,
            postcondition=instance.postcondition,
            steps=steps,
            combining=False,
            metadata={"encoding": "sccl", "instance": instance.describe()},
        )
        # Models may contain sends that never contribute to the postcondition
        # (nothing in C1-C6 forbids them); strip them for clean schedules.
        return algorithm.pruned()

