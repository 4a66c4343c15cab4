"""SMT encoding of the SynColl synthesis problem (Section 3.4).

Two encodings are provided:

* :class:`ScclEncoding` — the paper's scalable encoding.  It splits the
  send set ``T`` into per-(chunk, node) arrival *times* and step-less send
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
  witness, and interchangeable chunks (same pre- and post-condition
  nodes) arrive in id order at one node that owes them.  The
  role Z3's theory of linear integer arithmetic plays in the paper is
  played here by the order encoding plus cardinality/totalizer encoders
  (:mod:`repro.solver.encoders`), which is an exact finite-domain
  compilation of the same constraints.

* :class:`NaiveEncoding` — the "Boolean variable for every tuple
  ``(c, n, n', s)``" encoding the paper reports as not scaling
  (Section 5.4.3).  It is retained for the encoding ablation benchmark and,
  having none of the pruning above, as the oracle the tests compare
  :class:`ScclEncoding`'s verdicts against.

Both encodings expose ``encode()`` producing an :class:`SmtLite` context
and ``decode(model)`` mapping a satisfying assignment back to an
:class:`~repro.core.algorithm.Algorithm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..collectives import get_collective
from ..solver import IntVar, SmtLite
from ..topology import shortest_path_lengths
from .algorithm import Algorithm, Send, Step
from .bounds import Cut, iter_cuts
from .instance import SynCollInstance


class EncodingError(Exception):
    """Raised when an instance cannot be encoded (e.g. unreachable chunk)."""


class PrefixAnalysis:
    """Chunk-reachability tables shared across a family of encodings.

    The distance tables the encoder uses for pruning depend only on the
    topology and on each chunk's own pre/post placements — never on the
    step count ``S`` or the rounds budget ``R`` — and the Table 1 relations
    are *prefix-stable* in the per-node chunk count ``C``: growing ``C``
    appends new global chunk ids without moving the placements of existing
    ones.  One ``PrefixAnalysis`` therefore serves every encoding of a
    ``(S, C)`` lattice: the all-pairs shortest paths are computed once and
    the per-chunk rows are extended monotonically as larger instances
    arrive (:meth:`ensure`).
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        self.distances = shortest_path_lengths(topology)
        self.chunk_dist: Dict[Tuple[int, int], Optional[int]] = {}
        self.need_dist: Dict[Tuple[int, int], Optional[int]] = {}
        #: Per chunk, the sorted nodes that hold it initially / must end up
        #: with it.  Chunks with equal pairs are interchangeable.
        self.sources: Dict[int, Tuple[int, ...]] = {}
        self.needers: Dict[int, Tuple[int, ...]] = {}
        self._chunks_covered = 0

    def ensure(self, instance: SynCollInstance) -> "PrefixAnalysis":
        """Extend the tables to cover ``instance``'s chunks; returns self."""
        other = instance.topology
        # The tables depend on the link structure, so identity of name alone
        # is not enough — a same-named topology with different links would
        # silently poison the pruning.
        if other is not self.topology and (
            other.num_nodes != self.topology.num_nodes
            or sorted(other.links()) != sorted(self.topology.links())
        ):
            raise EncodingError(
                f"analysis built for topology {self.topology.name!r} cannot "
                f"serve the structurally different {other.name!r}"
            )
        lo, hi = self._chunks_covered, instance.num_chunks
        if hi <= lo:
            return self
        sources: Dict[int, List[int]] = {c: [] for c in range(lo, hi)}
        needers: Dict[int, List[int]] = {c: [] for c in range(lo, hi)}
        for (chunk, node) in instance.precondition:
            if lo <= chunk < hi:
                sources[chunk].append(node)
        for (chunk, node) in instance.postcondition:
            if lo <= chunk < hi:
                needers[chunk].append(node)
        nodes = list(self.topology.nodes())
        for chunk in range(lo, hi):
            self.sources[chunk] = tuple(sorted(sources[chunk]))
            self.needers[chunk] = tuple(sorted(needers[chunk]))
            for node in nodes:
                best: Optional[int] = None
                for src in sources[chunk]:
                    d = self.distances.get(src, {}).get(node)
                    if d is not None and (best is None or d < best):
                        best = d
                self.chunk_dist[(chunk, node)] = best
                best = None
                for dst in needers[chunk]:
                    d = self.distances.get(node, {}).get(dst)
                    if d is not None and (best is None or d < best):
                        best = d
                self.need_dist[(chunk, node)] = best
        self._chunks_covered = hi
        return self


@dataclass
class EncodingStats:
    """Size and timing statistics reported by the benchmarks."""

    variables: int = 0
    clauses: int = 0
    send_vars: int = 0
    time_vars: int = 0
    aux_vars: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "variables": self.variables,
            "clauses": self.clauses,
            "send_vars": self.send_vars,
            "time_vars": self.time_vars,
            "aux_vars": self.aux_vars,
        }


class ScclEncoding:
    """The paper's time/send split encoding of a SynColl instance.

    With ``rounds_budget`` set (to some ``R_max >= instance.rounds``) the
    encoding becomes *rounds-incremental*: the per-step round variables are
    given the widened domain ``1 .. R_max - (S - 1)``, the hard total-rounds
    constraint C6 is replaced by a pair of unary counters over the round
    variables' order-encoding Booleans, and :meth:`rounds_assumptions`
    returns assumption literals pinning the total to any ``R`` in
    ``S .. R_max``.  One encoding (and one solver, via
    :class:`repro.engine.session.SessionFamily`) then serves every
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
    prefix-stable in ``C`` (see :class:`PrefixAnalysis`), which
    :meth:`extend_chunks` re-checks before growing the budget in place —
    appending new levels' variables and clauses to the same formula instead
    of re-encoding the shared time/send substructure.
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
        self.ctx = SmtLite(name=f"sccl_{instance.collective}")
        #: Set by :meth:`encode` when a single node's in- or out-cut refutes
        #: the instance; the formula is then just the empty clause.
        self.cut_witness: Optional[Cut] = None
        # Variable maps populated by encode().
        self.time_vars: Dict[Tuple[int, int], IntVar] = {}
        self.send_vars: Dict[Tuple[int, int, int], int] = {}   # (chunk, src, dst) -> lit
        self.round_vars: List[IntVar] = []
        self.stats = EncodingStats()
        self._encoded = False
        # Unary counters for the rounds-budget selector layer:
        # _count_ge[j] is true when at least j+1 round-encoding Booleans are
        # true, _false_ge[j] when at least j+1 are false.
        self._round_bools: List[int] = []
        self._count_ge: List[int] = []
        self._false_ge: List[int] = []
        # Chunk-selector layer: one enable literal per chunk level, the
        # level index of each global chunk, and the per-(constraint, step)
        # bandwidth terms kept for in-place extension.
        self._level_lits: List[int] = []
        self._chunk_level: List[int] = []
        self._bandwidth_terms: Dict[Tuple[int, int], List[int]] = {}
        self._activation: Dict[Tuple[int, int, int, int], int] = {}
        self._chunk_dist: Dict[Tuple[int, int], Optional[int]] = {}
        self._need_dist: Dict[Tuple[int, int], Optional[int]] = {}
        self._links: List[Tuple[int, int]] = []
        self._in_links: Dict[int, List[int]] = {}
        # Symmetry breaking: the highest chunk id seen so far of each class
        # of interchangeable chunks, keyed by (pre nodes, post nodes).
        self._class_tail: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self) -> SmtLite:
        if self._encoded:
            return self.ctx
        instance = self.instance
        ctx = self.ctx
        S = instance.steps
        R = instance.rounds
        G = instance.num_chunks
        topology = instance.topology
        self._links = sorted(topology.links())
        self._in_links = {n: topology.in_neighbors(n) for n in topology.nodes()}
        self.analysis.ensure(instance)
        self._chunk_dist = self.analysis.chunk_dist
        self._need_dist = self.analysis.need_dist

        # --- cut arithmetic: refute before emitting anything ------------------------
        # Only the plain form: a budgeted or chunk-selector formula serves
        # many (C, R) frames and one frame's cut says nothing about the rest.
        if self.rounds_budget is None and not self.chunk_selector:
            for cut in iter_cuts(topology, instance.precondition, instance.postcondition):
                if cut.refutes(R):
                    self.cut_witness = cut
                    ctx.add_clause_fast([])
                    self._refresh_stats()
                    self._encoded = True
                    return ctx

        if self.chunk_selector:
            self._ensure_levels(instance.chunks_per_node)

        # --- time[c, n] and snd[c, src, dst] variables -----------------------------
        self._encode_placement_vars(0, G)

        # --- r[s] round variables ---------------------------------------------------
        # Rounds are per-step; each step performs at least one round (steps
        # that send nothing are never useful because Algorithm 1 enumerates
        # S from its lower bound upward).  Under a rounds budget the domain
        # is widened to the budget so the same variables serve every R.
        budget = self.rounds_budget if self.rounds_budget is not None else R
        min_rounds = 1 if budget >= S else 0
        for s in range(S):
            self.round_vars.append(
                ctx.new_int(min_rounds, budget - (S - 1) * min_rounds, name=f"rounds_{s}")
            )

        # --- C1-C4 over the chunk range, C5 over the accumulated terms --------------
        self._encode_chunk_constraints(0, G)
        self._encode_bandwidth(0, G)

        # --- C6: total rounds -----------------------------------------------------------
        if self.rounds_budget is None:
            from ..solver.intvar import unary_sum_equals

            unary_sum_equals(ctx.cnf, self.round_vars, R)
        else:
            self._build_rounds_selector()

        self._refresh_stats()
        self._encoded = True
        return ctx

    def _emit(self, lits: Sequence[int]) -> None:
        """Add a clause, simplified against the constant literals.

        Comparisons a time variable's domain decides come back as the
        context's constant true/false literal; a clause holding a true one
        is dropped and false ones are left out, so nothing the domains
        already settle reaches the solver.
        """
        true = self.ctx.true_lit
        clause = []
        for lit in lits:
            if lit == true:
                return
            if lit != -true:
                clause.append(lit)
        self.ctx.add_clause_fast(clause)

    def _encode_placement_vars(self, lo: int, hi: int) -> None:
        """Time and send variables (plus selector guards) for chunks [lo, hi)."""
        ctx = self.ctx
        instance = self.instance
        S = instance.steps
        nodes = list(instance.topology.nodes())
        sends = [
            (chunk, src, dst)
            for chunk in range(lo, hi)
            for (src, dst) in self._links
            if not self.prune or self._send_useful(chunk, src, dst)
        ]
        reachable = {(chunk, dst) for (chunk, _, dst) in sends}
        for chunk in range(lo, hi):
            for node in nodes:
                if (chunk, node) in instance.precondition:
                    first = last = 0  # C1
                elif (chunk, node) not in reachable:
                    # No send can deliver it: S+1, "not present within the
                    # algorithm".  If the node is owed the chunk, C2 refutes.
                    first = last = S + 1
                else:
                    # A chunk cannot arrive earlier than its graph distance.
                    first = self._chunk_dist[(chunk, node)] if self.prune else 0
                    # An unconditional postcondition ends the domain at S.
                    owed = not self.chunk_selector and (chunk, node) in instance.postcondition
                    last = S if owed else S + 1
                self.time_vars[(chunk, node)] = ctx.new_int(first, last)
        for (chunk, src, dst) in sends:
            lit = ctx.new_bool()
            self.send_vars[(chunk, src, dst)] = lit
            if self.chunk_selector:
                # A send of a disabled chunk level is forbidden, so a
                # frame assumption cleanly zeroes the level out.
                ctx.add_clause_fast([-lit, self._level_lits[self._chunk_level[chunk]]])

    def _encode_chunk_constraints(self, lo: int, hi: int) -> None:
        """Constraints C2-C4 and the symmetry order, for the chunk range [lo, hi).

        C1 is the constant-0 domain of the precondition nodes' time
        variables (:meth:`_encode_placement_vars`).
        """
        ctx = self.ctx
        instance = self.instance
        S = instance.steps
        true = ctx.true_lit
        add = ctx.add_clause_fast

        # --- C2: postconditions -----------------------------------------------------
        for (chunk, node) in instance.postcondition:
            if not lo <= chunk < hi:
                continue
            held = self.time_vars[(chunk, node)].le_lit(S)
            if self.chunk_selector:
                # The postcondition only binds while the chunk's level is on.
                self._emit([-self._level_lits[self._chunk_level[chunk]], held])
            else:
                self._emit([held])

        # --- C3: unique reception ----------------------------------------------------
        for chunk in range(lo, hi):
            for node in instance.topology.nodes():
                if (chunk, node) in instance.precondition:
                    continue
                present = self.time_vars[(chunk, node)].le_lit(S)
                incoming = [
                    self.send_vars[(chunk, src, node)]
                    for src in self._in_links[node]
                    if (chunk, src, node) in self.send_vars
                ]
                # present -> exactly one incoming send (with none the chunk
                # never arrives; owing it anyway makes the instance UNSAT)
                self._emit([-present] + incoming)
                ctx.at_most_one(incoming)
                # any incoming send -> present within S steps
                if present != true:
                    for lit in incoming:
                        add([-lit, present])

        # --- C4: causality ------------------------------------------------------------
        for (chunk, src, dst), snd in self.send_vars.items():
            if not lo <= chunk < hi:
                continue
            time_src = self.time_vars[(chunk, src)]
            time_dst = self.time_vars[(chunk, dst)]
            # snd ∧ time_dst <= s  ->  time_src <= s - 1.  Below time_dst's
            # domain the premise is false; from time_src's upper end on the
            # conclusion is true (every s >= 1 for a precondition source).
            for s in range(time_dst.lo, min(S, time_src.hi) + 1):
                clause = [-snd]
                arrived = time_dst.le_lit(s)
                if arrived != true:
                    clause.append(-arrived)
                earlier = time_src.le_lit(s - 1)
                if earlier != -true:
                    clause.append(earlier)
                add(clause)

        # --- symmetry: interchangeable chunks arrive in id order ---------------------
        sources, needers = self.analysis.sources, self.analysis.needers
        for chunk in range(lo, hi):
            key = (sources[chunk], needers[chunk])
            previous = self._class_tail.get(key)
            self._class_tail[key] = chunk
            owing = set(needers[chunk]) - set(sources[chunk])
            if previous is None or not owing:
                continue
            # One node suffices to order the class; which one is a search
            # heuristic (the highest-numbered measured best on probe_rows).
            node = max(owing)
            time_a = self.time_vars[(previous, node)]
            time_b = self.time_vars[(chunk, node)]
            for s in range(S + 1):
                # time_b <= s  ->  time_a <= s
                self._emit([-time_b.le_lit(s), time_a.le_lit(s)])

    def _activation_lit(self, chunk: int, src: int, dst: int, s: int) -> Optional[int]:
        """Auxiliary activation literal a[c, (src,dst), s]: (snd ∧ time_dst == s) -> a.

        Only this direction is needed because the activations appear in
        upper-bound (<=) constraints.
        """
        ctx = self.ctx
        key = (chunk, src, dst, s)
        if key in self._activation:
            return self._activation[key]
        snd = self.send_vars.get((chunk, src, dst))
        if snd is None:
            return None
        time_dst = self.time_vars[(chunk, dst)]
        if not time_dst.lo <= s <= time_dst.hi:
            return None  # arrival at step s is impossible
        if time_dst.lo == time_dst.hi:
            # The only possible arrival step: the send is its own activation.
            self._activation[key] = snd
            return snd
        a = ctx.new_bool()
        ctx.add_clause_fast([-snd] + [-lit for lit in time_dst.eq_lits(s)] + [a])
        self._activation[key] = a
        self.stats.aux_vars += 1
        return a

    def _encode_bandwidth(self, lo: int, hi: int) -> None:
        """Constraint C5: per-step bandwidth counts.

        Activation terms for chunks in [lo, hi) are appended to the
        per-(constraint, step) term lists; the cardinality link to the
        round variables is then (re-)emitted over the *full* list.  On
        extension the constraints already emitted over the old prefix stay
        in the formula — they are sound under-counts — and the fresh
        emission restores completeness over the grown term set.
        """
        ctx = self.ctx
        S = self.instance.steps
        for ci, constraint in enumerate(self.instance.topology.constraints):
            b = constraint.bandwidth
            for s in range(1, S + 1):
                terms = self._bandwidth_terms.setdefault((ci, s), [])
                before = len(terms)
                for chunk in range(lo, hi):
                    for (src, dst) in constraint.links:
                        a = self._activation_lit(chunk, src, dst, s)
                        if a is not None:
                            terms.append(a)
                if not terms or (lo > 0 and len(terms) == before):
                    continue
                r_s = self.round_vars[s - 1]
                if r_s.lo == r_s.hi:
                    # Fixed round count: a plain cardinality constraint.
                    ctx.at_most_k(terms, b * r_s.lo)
                    continue
                # count <= b * r_s with a variable r_s: build unary counts and
                # link each threshold to the order encoding of r_s:
                #   count >= b*j + 1  ->  r_s >= j + 1
                bound = min(len(terms), b * r_s.hi + 1)
                outputs = ctx.totalizer(terms, bound=bound)
                for j in range(0, r_s.hi + 1):
                    threshold = b * j + 1
                    if threshold <= len(outputs):
                        ctx.add_clause_fast([-outputs[threshold - 1], r_s.ge_lit(j + 1)])

    def _refresh_stats(self) -> None:
        self.stats.variables = self.ctx.cnf.num_vars
        self.stats.clauses = self.ctx.cnf.num_clauses
        self.stats.send_vars = len(self.send_vars)
        self.stats.time_vars = len(self.time_vars)

    # ------------------------------------------------------------------
    # Chunk-selector layer (shared-prefix form)
    # ------------------------------------------------------------------
    def _ensure_levels(self, chunks_per_node: int) -> None:
        """Enable literals and the chunk -> level map up to ``chunks_per_node``."""
        spec = get_collective(self.instance.collective)
        nodes = self.instance.topology.num_nodes
        while len(self._level_lits) < chunks_per_node:
            level = len(self._level_lits) + 1
            lit = self.ctx.new_bool(name=f"chunks_ge_{level}")
            if self._level_lits:
                # Enabled levels form a prefix: level l on implies l-1 on,
                # so a frame needs only two assumption literals.
                self.ctx.add_clause_fast([-lit, self._level_lits[-1]])
            self._level_lits.append(lit)
            for _ in range(spec.global_chunks(nodes, level) - len(self._chunk_level)):
                self._chunk_level.append(level - 1)

    def extend_chunks(self, instance: SynCollInstance) -> SmtLite:
        """Grow the chunk budget in place to serve ``instance``'s chunk count.

        Appends the new levels' time/send variables and their C1-C4
        clauses, re-links C5 over the grown activation term lists, and
        leaves every existing variable and clause untouched — the shared
        time/send substructure is extended, not re-encoded.  The caller
        must reload any solver handle (the formula grew).
        """
        if not self._encoded:
            raise EncodingError("encode() must be called before extend_chunks()")
        if not self.chunk_selector:
            raise EncodingError("extend_chunks() requires a chunk_selector encoding")
        old = self.instance
        if (
            instance.collective != old.collective
            or instance.topology.name != old.topology.name
            or instance.steps != old.steps
            or instance.rounds != old.rounds
            or instance.root != old.root
        ):
            raise EncodingError(
                "extend_chunks(): instance may differ from the encoded one only "
                "in its chunk count"
            )
        if instance.chunks_per_node < old.chunks_per_node:
            raise EncodingError(
                f"cannot shrink the chunk budget ({old.chunks_per_node} -> "
                f"{instance.chunks_per_node}); use chunks_assumptions() instead"
            )
        if instance.chunks_per_node == old.chunks_per_node:
            return self.ctx
        # The extension is only sound when existing chunks keep their
        # placements — true for every Table 1 relation, re-checked here so
        # an exotic future collective cannot silently corrupt the family.
        if not (
            old.precondition <= instance.precondition
            and old.postcondition <= instance.postcondition
        ):
            raise EncodingError(
                f"{old.collective} placements are not prefix-stable in the "
                f"chunk count; cannot extend the encoding in place"
            )
        lo, hi = old.num_chunks, instance.num_chunks
        self.analysis.ensure(instance)
        self.instance = instance
        self._ensure_levels(instance.chunks_per_node)
        self._encode_placement_vars(lo, hi)
        self._encode_chunk_constraints(lo, hi)
        self._encode_bandwidth(lo, hi)
        self._refresh_stats()
        return self.ctx

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
            self._count_ge = self.ctx.totalizer(bools)
            self._false_ge = self.ctx.totalizer([-lit for lit in bools])

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

    def _send_useful(self, chunk: int, src: int, dst: int) -> bool:
        """Prune send variables that can never appear in a valid schedule."""
        S = self.instance.steps
        reach_src = self._chunk_dist[(chunk, src)]
        if reach_src is None or reach_src + 1 > S:
            return False
        # After arriving at dst (taking at least reach_src + 1 steps), the
        # chunk must still be able to serve some node that needs it.
        useful_at = self._need_dist[(chunk, dst)]
        reach_dst = self._chunk_dist[(chunk, dst)]
        if useful_at is None or reach_dst == 0:  # dead end, or dst holds it already
            return False
        earliest_arrival = max(reach_dst, reach_src + 1)
        return earliest_arrival + useful_at <= S

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
        rounds = [SmtLite.int_value(model, rv) for rv in self.round_vars]
        sends_by_step: List[List[Send]] = [[] for _ in range(S)]
        for (chunk, src, dst), lit in self.send_vars.items():
            if chunk >= instance.num_chunks:
                continue  # disabled level of a chunk-selector encoding
            if not SmtLite.bool_value(model, lit):
                continue
            arrival = SmtLite.int_value(model, self.time_vars[(chunk, dst)])
            if arrival > S:
                # A send that never takes effect; drop it (it cannot appear in
                # a minimal model but nothing in the constraints forbids it).
                continue
            step_index = arrival - 1
            if step_index < 0:
                raise EncodingError(
                    f"model places arrival of chunk {chunk} at node {dst} at step 0 "
                    f"despite not being in the precondition"
                )
            sends_by_step[step_index].append(Send(chunk=chunk, src=src, dst=dst))
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


class NaiveEncoding:
    """The direct encoding with one Boolean per tuple ``(c, n, n', s)``.

    Kept for the Section 5.4.3 ablation: it produces many more variables
    and scales poorly compared to :class:`ScclEncoding`.
    """

    def __init__(self, instance: SynCollInstance) -> None:
        self.instance = instance
        self.ctx = SmtLite(name=f"naive_{instance.collective}")
        self.send_step_vars: Dict[Tuple[int, int, int, int], int] = {}
        self.present_vars: Dict[Tuple[int, int, int], int] = {}
        self.round_vars: List[IntVar] = []
        self.stats = EncodingStats()
        self._encoded = False

    def encode(self) -> SmtLite:
        if self._encoded:
            return self.ctx
        instance = self.instance
        ctx = self.ctx
        S = instance.steps
        R = instance.rounds
        G = instance.num_chunks
        topology = instance.topology
        links = sorted(topology.links())

        # present[c, n, t]: chunk c is available on node n before step t executes.
        for chunk in range(G):
            for node in topology.nodes():
                for t in range(S + 1):
                    self.present_vars[(chunk, node, t)] = ctx.new_bool(
                        name=f"has_c{chunk}_n{node}_t{t}"
                    )
        # x[c, src, dst, s]: chunk c is sent over (src, dst) at step s.
        for chunk in range(G):
            for (src, dst) in links:
                for s in range(S):
                    self.send_step_vars[(chunk, src, dst, s)] = ctx.new_bool(
                        name=f"x_c{chunk}_{src}_{dst}_s{s}"
                    )
        min_rounds = 1 if R >= S else 0
        for s in range(S):
            self.round_vars.append(
                ctx.new_int(min_rounds, R - (S - 1) * min_rounds, name=f"rounds_{s}")
            )

        # Initial state = precondition.
        for chunk in range(G):
            for node in topology.nodes():
                lit = self.present_vars[(chunk, node, 0)]
                if (chunk, node) in instance.precondition:
                    ctx.add_unit(lit)
                else:
                    ctx.add_unit(-lit)

        # Transition: present at t+1 iff present at t or received at step t.
        for chunk in range(G):
            for node in topology.nodes():
                incoming_links = [
                    (src, node) for src in topology.in_neighbors(node)
                ]
                for t in range(S):
                    now = self.present_vars[(chunk, node, t)]
                    nxt = self.present_vars[(chunk, node, t + 1)]
                    received = [
                        self.send_step_vars[(chunk, src, dst, t)]
                        for (src, dst) in incoming_links
                    ]
                    # now -> nxt
                    ctx.add_clause([-now, nxt])
                    # received -> nxt
                    for lit in received:
                        ctx.add_clause([-lit, nxt])
                    # nxt -> now or received
                    ctx.add_clause([-nxt, now] + received)

        # A send requires the chunk at the source beforehand.
        for (chunk, src, dst, s), lit in self.send_step_vars.items():
            ctx.add_clause([-lit, self.present_vars[(chunk, src, s)]])

        # Bandwidth per step and constraint.
        for constraint in topology.constraints:
            b = constraint.bandwidth
            for s in range(S):
                terms = [
                    self.send_step_vars[(chunk, src, dst, s)]
                    for chunk in range(G)
                    for (src, dst) in constraint.links
                ]
                if not terms:
                    continue
                r_s = self.round_vars[s]
                if r_s.lo == r_s.hi:
                    ctx.at_most_k(terms, b * r_s.lo)
                    continue
                bound = min(len(terms), b * r_s.hi + 1)
                outputs = ctx.totalizer(terms, bound=bound)
                for j in range(0, r_s.hi + 1):
                    threshold = b * j + 1
                    if threshold <= len(outputs):
                        ctx.add_clause([-outputs[threshold - 1], r_s.ge_lit(j + 1)])

        # Postcondition.
        for (chunk, node) in instance.postcondition:
            ctx.add_unit(self.present_vars[(chunk, node, S)])

        # Total rounds.
        from ..solver.intvar import unary_sum_equals

        unary_sum_equals(ctx.cnf, self.round_vars, R)

        cnf_stats = ctx.stats()
        self.stats.variables = cnf_stats["variables"]
        self.stats.clauses = cnf_stats["clauses"]
        self.stats.send_vars = len(self.send_step_vars)
        self.stats.time_vars = len(self.present_vars)
        self._encoded = True
        return ctx

    def decode(self, model: Dict[int, bool], name: Optional[str] = None) -> Algorithm:
        if not self._encoded:
            raise EncodingError("encode() must be called before decode()")
        instance = self.instance
        S = instance.steps
        rounds = [SmtLite.int_value(model, rv) for rv in self.round_vars]
        sends_by_step: List[List[Send]] = [[] for _ in range(S)]
        # Only keep sends that deliver the chunk for the first time, mirroring
        # the unique-reception property of the SCCL encoding.
        delivered: Set[Tuple[int, int]] = {
            (chunk, node) for (chunk, node) in instance.precondition
        }
        for s in range(S):
            arrivals: Dict[Tuple[int, int], Tuple[int, int]] = {}
            for (chunk, src, dst, step), lit in self.send_step_vars.items():
                if step != s or not SmtLite.bool_value(model, lit):
                    continue
                if (chunk, dst) in delivered or (chunk, dst) in arrivals:
                    continue
                arrivals[(chunk, dst)] = (src, dst)
            for (chunk, dst), (src, _) in arrivals.items():
                sends_by_step[s].append(Send(chunk=chunk, src=src, dst=dst))
                delivered.add((chunk, dst))
        steps = [
            Step(rounds=rounds[s], sends=tuple(sorted(
                sends_by_step[s], key=lambda x: (x.src, x.dst, x.chunk)
            )))
            for s in range(S)
        ]
        return Algorithm(
            name=name
            or f"{instance.collective.lower()}_{instance.topology.name}_naive"
            f"_c{instance.chunks_per_node}_s{S}_r{instance.rounds}",
            collective=instance.collective,
            topology=instance.topology,
            chunks_per_node=instance.chunks_per_node,
            num_chunks=instance.num_chunks,
            precondition=instance.precondition,
            postcondition=instance.postcondition,
            steps=steps,
            combining=False,
            metadata={"encoding": "naive", "instance": instance.describe()},
        )
