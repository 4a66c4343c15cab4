"""A CDCL SAT solver in pure Python.

This is the solving substrate that replaces Z3 in the SCCL reproduction.
The paper's synthesis encoding is a quantifier-free finite-domain formula
(Booleans, bounded integers and cardinality sums), so a SAT solver plus
the encoders in :mod:`repro.solver.encoders` and
:mod:`repro.solver.intvar` is a complete substitute.

The implementation follows the standard modern architecture:

* two-watched-literal Boolean constraint propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style variable activities with exponential decay,
* phase saving,
* Luby-sequence restarts,
* learned-clause database reduction driven by clause activities.

The solver supports incremental solving under assumptions, which the
synthesis layer uses when probing neighbouring (S, R, C) instances.

Data layout
-----------
* A clause is a plain ``list[int]``: its watched literals are ``clause[0]``
  and ``clause[1]``, and a clause that implied a literal holds it at
  ``clause[0]``.  A clause is learnt iff ``id(clause)`` is a key of the
  activity side table ``_cla_activity``.
* ``_val`` and ``_watches`` are indexed *by literal*: ``2n + 1`` slots laid
  out ``[unused, 1 .. n, -n .. -1]``, so a negative literal is a negative
  list index and growing the variable space inserts slots in the middle.
  Assigning a literal writes ``_val[lit]`` and ``_val[-lit]``.  A literal
  outside ``-n .. n`` would alias another slot, so literals are
  range-checked where they enter.
* Watch invariant: ``_watches[lit]`` holds the clauses watching ``-lit``,
  the ones to visit when ``lit`` becomes true.
* ``_level``, ``_reason``, ``_activity``, ``_phase``, ``_seen``,
  ``_heap_copies`` and ``_in_zero_heap`` are indexed by variable (slot 0
  unused).  ``_reason[var]`` is read only while ``var`` is on the trail;
  a backtrack leaves it stale, and every assignment overwrites it.
* Heap invariant: the search is defined by a lazy heap of possibly stale
  ``(-activity, var)`` entries that gets one entry per activity bump and one
  per unassignment.  Before the first rescale it decides on the unassigned
  variable with the highest activity, the lowest index on ties.  That heap
  is stored in two tiers and some counts:

  - A variable whose activity is ``0.0`` (never bumped, or scaled down
    to it by rescales) waits as a plain int in ``_zero_heap`` when it is
    unassigned (``_in_zero_heap[var]`` marks it present).  A bumped
    activity is always ``> 0``, so a ``(-0.0, var)`` entry would leave the
    heap after every bumped entry, in index order, and an unassigned bumped
    variable always has a negative-key entry: the int heap is read only
    when ``_order_heap`` holds no unassigned variable, and gives the same
    pick.
  - ``_order_heap`` holds the bumped entries.  For each variable,
    ``max(0, _heap_copies[var] - 1)`` more copies of its current entry
    ``(-_activity[var], var)`` are only counted; a count ``>= 1`` implies
    the current entry is in ``_order_heap``, so unassigning such a
    variable only counts.  The count is 0 while the activity is ``0.0``.
  - A bump makes the variable's entry stale.  Within one activity epoch a
    stale entry is never picked (the variable's current entry is smaller
    and is in the heap while it is unassigned), and equal entries leave
    the heap in the same pick, so its ``copies - 1`` counted copies wait in
    ``_stale_copies`` instead of the heap.  A rescale of all activities
    ends the epoch: entries from before it outrank all later ones and each
    copy can yield one more decision, so the rescale first pushes the
    waiting copies of every stale entry still in the heap, then the counted
    copies of every current entry.
"""

from __future__ import annotations

import heapq
import time
from itertools import islice
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

from .cnf import CNF


class SolveResult(Enum):
    """Outcome of a :meth:`SATSolver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # resource limit (time or conflicts) exceeded


class SolverStats:
    """Mutable counters describing the work performed by the solver."""

    __slots__ = (
        "decisions",
        "propagations",
        "conflicts",
        "restarts",
        "learned_clauses",
        "deleted_clauses",
        "max_decision_level",
        "solve_time",
    )

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.deleted_clauses = 0
        self.max_decision_level = 0
        self.solve_time = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({inner})"


def luby(i: int) -> int:
    """Return the i-th element (1-based) of the Luby restart sequence."""
    if i < 1:
        raise ValueError("luby is defined for indices >= 1")
    # Find the finite subsequence that contains index i and the position of
    # i within it (MiniSat's formulation, shifted to 1-based indices).
    x = i - 1
    size, exponent = 1, 0
    while size < x + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        exponent -= 1
        x %= size
    return 1 << exponent


UNASSIGNED = 0
TRUE = 1
FALSE = -1


class SATSolver:
    """Conflict-driven clause-learning SAT solver.

    The solver owns its variable space.  Use :meth:`new_var` to allocate
    variables, :meth:`add_clause` to add clauses, and :meth:`solve` to
    search for a model.  After a SAT answer, :meth:`model_value` or
    :meth:`model` read the satisfying assignment.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Indexed by literal: [unused, 1..n, -n..-1] (see the module docstring).
        self._val: List[int] = [UNASSIGNED]
        self._watches: List[List[List[int]]] = [[]]
        # Indexed by variable (1-based; index 0 unused).
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen: List[bool] = [False]
        self._heap_copies: List[int] = [0]
        self._in_zero_heap: List[bool] = [False]
        self._clauses: List[List[int]] = []
        self._learnts: List[List[int]] = []
        self._cla_activity: Dict[int, float] = {}  # id(learnt clause) -> activity
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagate_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        # Lazy heap of (-activity, var), the int tier of variables whose
        # activity is 0.0, and the copies that wait for the next rescale;
        # see the heap invariant above.
        self._order_heap: List[tuple[float, int]] = []
        self._zero_heap: List[int] = []
        self._stale_copies: Dict[tuple[float, int], int] = {}
        self.stats = SolverStats()
        self._model: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Variable / clause creation
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def ensure_vars(self, max_var: int) -> None:
        """Grow the variable space so that ``max_var`` is valid."""
        old = self.num_vars
        extra = max_var - old
        if extra <= 0:
            return
        self._val[old + 1:old + 1] = [UNASSIGNED] * (2 * extra)
        self._watches[old + 1:old + 1] = [[] for _ in range(2 * extra)]
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._activity.extend([0.0] * extra)
        self._phase.extend([False] * extra)
        self._seen.extend([False] * extra)
        self._heap_copies.extend([0] * extra)
        self._in_zero_heap.extend([True] * extra)
        # Every variable in the int heap is smaller than the new ones, so
        # appending is what a heappush per variable would do.
        self._zero_heap.extend(range(old + 1, max_var + 1))
        self.num_vars = max_var

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause.  Returns ``False`` if the formula became trivially UNSAT."""
        if not self._ok:
            return False
        # solve() always returns at decision level 0, so every literal that
        # has a value here is fixed for good.
        val = self._val
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 not allowed")
            if not -self.num_vars <= lit <= self.num_vars:
                self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            # Skip literals already falsified, drop the clause if satisfied.
            if val[lit] == TRUE:
                return True
            if val[lit] == FALSE:
                continue
            seen.add(lit)
            clause.append(lit)

        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            self._assign(clause[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        """Load every clause of a :class:`~repro.solver.cnf.CNF` object.

        The variable space grows once.  The clauses the formula hands over
        (:meth:`CNF.hand_over`) need no checks: one with no fixed literal
        is stored as the very list the formula holds, and this solver
        reorders its literals from then on.  Every other clause goes
        through :meth:`add_clause`.  Either way it is stored, watched and
        propagated exactly as by :meth:`add_clause`.
        """
        self.ensure_vars(cnf.num_vars)
        if not self._ok:
            return False
        watches, clauses, trail = self._watches, self._clauses, self._trail
        source = cnf.clauses
        handed_from = cnf.hand_over()
        for lits in islice(source, handed_from):
            if not self.add_clause(lits):
                return False
        # solve() returns at decision level 0, so the trail is the fixed literals.
        fixed = set(trail).union([-lit for lit in trail])
        known = len(trail)
        for lits in islice(source, handed_from, None):
            if len(lits) > 1 and fixed.isdisjoint(lits):
                clauses.append(lits)
                watches[-lits[0]].append(lits)
                watches[-lits[1]].append(lits)
            elif not self.add_clause(lits):
                return False
            elif len(trail) > known:  # a unit: it and what it implied are fixed now
                for lit in trail[known:]:
                    fixed.add(lit)
                    fixed.add(-lit)
                known = len(trail)
        return True

    def _attach(self, clause: List[int]) -> None:
        self._watches[-clause[0]].append(clause)
        self._watches[-clause[1]].append(clause)

    # ------------------------------------------------------------------
    # Assignment & propagation
    # ------------------------------------------------------------------
    def _assign(self, lit: int, reason: Optional[List[int]]) -> None:
        """Make the unassigned literal ``lit`` true at the current level."""
        self._val[lit] = TRUE
        self._val[-lit] = FALSE
        var = abs(lit)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or ``None``."""
        val, watches, trail = self._val, self._watches, self._trail
        level, reason = self._level, self._reason
        current_level = len(self._trail_lim)
        start = head = self._propagate_head
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = -lit
            watchers = watches[lit]
            if not watchers:
                continue
            # The list is compacted in place while it is read: [0, kept) holds
            # the clauses that go on watching false_lit.
            kept = 0
            unvisited = iter(watchers)
            for clause in unvisited:
                # Normalize so that the false literal is clause[1].
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if val[first] == TRUE:
                    watchers[kept] = clause
                    kept += 1
                    continue
                # Look for a new literal to watch; a binary clause has none.
                if len(clause) > 2:
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if val[other] != FALSE:
                            clause[1] = other
                            clause[k] = false_lit
                            watches[-other].append(clause)
                            break
                    else:
                        k = 0
                    if k:
                        continue
                # Clause is unit or conflicting.
                watchers[kept] = clause
                kept += 1
                if val[first] == FALSE:
                    watchers[kept:] = list(unvisited)  # the rest keeps watching
                    self._propagate_head = head
                    self.stats.propagations += head - start
                    return clause
                val[first] = TRUE
                val[-first] = FALSE
                var = first if first > 0 else -first
                level[var] = current_level
                reason[var] = clause
                trail.append(first)
            del watchers[kept:]
        self._propagate_head = head
        self.stats.propagations += head - start
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _rescale_var_activity(self) -> float:
        """Scale every activity by 1e-100 and return the new increment; no
        heap entry is current afterwards, so the waiting copies of stale
        entries still in the heap and the counted copies of current entries
        are pushed first."""
        activity, copies, heap = self._activity, self._heap_copies, self._order_heap
        stale = self._stale_copies
        heappush = heapq.heappush
        for entry in [entry for entry in heap if entry in stale]:
            for _ in range(stale.pop(entry, 0)):
                heappush(heap, entry)
        stale.clear()
        for var in range(1, self.num_vars + 1):
            if copies[var] > 1:
                entry = (-activity[var], var)
                for _ in range(copies[var] - 1):
                    heappush(heap, entry)
            copies[var] = 0
            activity[var] *= 1e-100
        self._var_inc *= 1e-100
        return self._var_inc

    def _bump_clause(self, key: int) -> None:
        activity = self._cla_activity
        activity[key] += self._cla_inc
        if activity[key] > 1e20:
            for other in activity:
                activity[other] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP conflict analysis.

        Returns the learnt clause (with the asserting literal first) and the
        backtrack level.
        """
        seen, level, reason, trail = self._seen, self._level, self._reason, self._trail
        activity, copies, heap = self._activity, self._heap_copies, self._order_heap
        stale = self._stale_copies
        cla_activity = self._cla_activity
        heappush = heapq.heappush
        var_inc = self._var_inc
        current_level = len(self._trail_lim)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        path_vars: List[int] = []
        counter = 0
        index = len(trail) - 1
        lits = conflict

        while True:
            if id(lits) in cla_activity:
                self._bump_clause(id(lits))
            # A reason clause holds the literal it implied at position 0.
            for l in lits if lits is conflict else lits[1:]:
                var = l if l > 0 else -l
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    path_vars.append(var)
                    # Bump the variable: its heap entry stops being current.
                    if copies[var] > 1:
                        stale[(-activity[var], var)] = copies[var] - 1
                    act = activity[var] = activity[var] + var_inc
                    if act > 1e100:
                        copies[var] = 0
                        var_inc = self._rescale_var_activity()
                        act = activity[var]
                    copies[var] = 1
                    heappush(heap, (-act, var))
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(l)
            # Select next literal from the trail to resolve on.
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            lits = reason[var]
        learnt[0] = -lit

        # Learnt clause minimization (simple self-subsumption check).
        minimized = [learnt[0]]
        for l in learnt[1:]:
            var = abs(l)
            lits = reason[var]
            if lits is None:
                minimized.append(l)
                continue
            for rl in lits:
                rv = abs(rl)
                if rv != var and not seen[rv] and level[rv] > 0:
                    minimized.append(l)  # not redundant
                    break
        learnt = minimized

        for var in path_vars:
            seen[var] = False

        if len(learnt) == 1:
            backtrack_level = 0
        else:
            # Find the literal with the second-highest level and place it second.
            max_i = 1
            max_level = level[abs(learnt[1])]
            for i in range(2, len(learnt)):
                lvl = level[abs(learnt[i])]
                if lvl > max_level:
                    max_level = lvl
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            backtrack_level = max_level
        return learnt, backtrack_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        val, phase, trail = self._val, self._phase, self._trail
        activity, copies, heap = self._activity, self._heap_copies, self._order_heap
        zero_heap, in_zero_heap = self._zero_heap, self._in_zero_heap
        heappush = heapq.heappush
        limit = self._trail_lim[level]
        for lit in trail[limit:]:
            val[lit] = val[-lit] = UNASSIGNED
            if lit > 0:
                var = lit
                phase[var] = True
            else:
                var = -lit
                phase[var] = False
            # One more heap entry for var; counted if its entry is present.
            act = activity[var]
            if act:
                if copies[var]:
                    copies[var] += 1
                else:
                    copies[var] = 1
                    heappush(heap, (-act, var))
            elif not in_zero_heap[var]:
                in_zero_heap[var] = True
                heappush(zero_heap, var)
        del trail[limit:]
        del self._trail_lim[level:]
        self._propagate_head = min(self._propagate_head, limit)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> Optional[int]:
        val = self._val
        activity, copies, heap = self._activity, self._heap_copies, self._order_heap
        heappop = heapq.heappop
        while heap:
            neg_activity, var = heap[0]
            if val[var] != UNASSIGNED:
                heappop(heap)
                if neg_activity == -activity[var]:
                    copies[var] = 0  # an assigned variable drops all equal entries
                continue
            if neg_activity == -activity[var]:
                if copies[var] > 1:
                    copies[var] -= 1  # a counted copy is used up, the entry stays
                    return var
                copies[var] = 0
            heappop(heap)
            return var
        zero_heap, in_zero_heap = self._zero_heap, self._in_zero_heap
        while zero_heap:
            var = heapq.heappop(zero_heap)
            in_zero_heap[var] = False
            if val[var] == UNASSIGNED:
                return var
        # Every unassigned variable has an entry in one of the heaps; the
        # scan keeps the search complete should that ever not hold.
        for var in range(1, self.num_vars + 1):
            if val[var] == UNASSIGNED:
                return var
        return None

    def _reduce_db(self) -> None:
        """Remove half of the learnt clauses with the lowest activity."""
        learnts = self._learnts
        if len(learnts) < 100:
            return
        activity = self._cla_activity
        learnts.sort(key=lambda c: activity[id(c)])
        keep_from = len(learnts) // 2
        # Only a variable on the trail has a reason that is read.
        reason = self._reason
        locked = {id(reason[abs(lit)]) for lit in self._trail}
        removed = set()
        kept: List[List[int]] = []
        for i, clause in enumerate(learnts):
            if i < keep_from and id(clause) not in locked and len(clause) > 2:
                removed.add(id(clause))
            else:
                kept.append(clause)
        if not removed:
            return
        for watchers in self._watches:
            watchers[:] = [c for c in watchers if id(c) not in removed]
        for key in removed:
            del activity[key]
        self._learnts = kept
        self.stats.deleted_clauses += len(removed)

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Search for a model.

        Parameters
        ----------
        assumptions:
            Literals assumed true for this call only (incremental interface).
        conflict_limit:
            Abort with :data:`SolveResult.UNKNOWN` after this many conflicts.
        time_limit:
            Abort with :data:`SolveResult.UNKNOWN` after this many seconds.

        A negative limit, or a NaN time limit, raises :class:`ValueError`.
        Whatever the answer, the solver is back at decision level 0 when
        this returns, so clauses can be added between calls.
        """
        if conflict_limit is not None and conflict_limit < 0:
            raise ValueError(f"conflict_limit must be >= 0, got {conflict_limit!r}")
        if time_limit is not None and not time_limit >= 0:
            raise ValueError(f"time_limit must be >= 0, got {time_limit!r}")
        start_time = time.monotonic()
        self._model = {}
        try:
            return self._search(assumptions, conflict_limit, time_limit, start_time)
        finally:
            self._backtrack(0)
            self.stats.solve_time += time.monotonic() - start_time

    def _search(
        self, assumptions: Sequence[int], conflict_limit: Optional[int],
        time_limit: Optional[float], start_time: float,
    ) -> SolveResult:
        for lit in assumptions:
            if not 0 < abs(lit) <= self.num_vars:
                raise ValueError(f"assumption {lit} is not a literal of this solver")
        if not self._ok:
            return SolveResult.UNSAT
        if self._propagate() is not None:
            self._ok = False
            return SolveResult.UNSAT

        stats = self.stats
        val, level, reason, phase = self._val, self._level, self._reason, self._phase
        trail, trail_lim, watches = self._trail, self._trail_lim, self._watches
        propagate, analyze, backtrack = self._propagate, self._analyze, self._backtrack
        pick_branch_var = self._pick_branch_var
        restart_count = 0
        conflicts_since_restart = 0
        restart_limit = 64 * luby(1)
        total_conflicts_this_call = 0
        max_learnts = max(1000, len(self._clauses) // 2)

        while True:
            conflict = propagate()
            if conflict is not None:
                stats.conflicts += 1
                total_conflicts_this_call += 1
                conflicts_since_restart += 1
                if not trail_lim:
                    self._ok = False
                    return SolveResult.UNSAT
                learnt, backtrack_level = analyze(conflict)
                backtrack(backtrack_level)
                # Assert the learnt clause's first literal at the level
                # backtracked to; a unit learnt clause is a level-0 fact.
                lit = learnt[0]
                var = lit if lit > 0 else -lit
                if len(learnt) == 1:
                    reason[var] = None
                else:
                    self._learnts.append(learnt)
                    stats.learned_clauses += 1
                    watches[-lit].append(learnt)
                    watches[-learnt[1]].append(learnt)
                    self._cla_activity[id(learnt)] = 0.0
                    self._bump_clause(id(learnt))
                    reason[var] = learnt
                val[lit] = TRUE
                val[-lit] = FALSE
                level[var] = backtrack_level
                trail.append(lit)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if conflict_limit is not None and total_conflicts_this_call >= conflict_limit:
                    return SolveResult.UNKNOWN
                if time_limit is not None and (stats.conflicts & 63) == 0:
                    if time.monotonic() - start_time > time_limit:
                        return SolveResult.UNKNOWN
                continue

            # No conflict.
            if time_limit is not None and time.monotonic() - start_time > time_limit:
                return SolveResult.UNKNOWN

            if conflicts_since_restart >= restart_limit:
                restart_count += 1
                stats.restarts += 1
                conflicts_since_restart = 0
                restart_limit = 64 * luby(restart_count + 1)
                backtrack(0)
                continue

            if len(self._learnts) > max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)

            # Apply assumptions first, then decide.
            next_lit = None
            for assumption in assumptions:
                if val[assumption] == TRUE:
                    continue
                if val[assumption] == FALSE:
                    return SolveResult.UNSAT
                next_lit = assumption
                break
            if next_lit is None:
                var = pick_branch_var()
                if var is None:
                    # All variables assigned: a model.
                    self._model = {v: val[v] == TRUE for v in range(1, self.num_vars + 1)}
                    return SolveResult.SAT
                next_lit = var if phase[var] else -var
                stats.decisions += 1
            else:
                var = next_lit if next_lit > 0 else -next_lit

            trail_lim.append(len(trail))
            decision_level = len(trail_lim)
            if decision_level > stats.max_decision_level:
                stats.max_decision_level = decision_level
            val[next_lit] = TRUE
            val[-next_lit] = FALSE
            level[var] = decision_level
            reason[var] = None
            trail.append(next_lit)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model(self) -> Dict[int, bool]:
        """Return the last satisfying assignment as ``{var: bool}``."""
        return dict(self._model)

    def model_value(self, lit: int) -> bool:
        """Truth value of a literal in the last model."""
        value = self._model.get(abs(lit))
        if value is None:
            raise ValueError(f"variable {abs(lit)} has no model value (no SAT result yet?)")
        return value if lit > 0 else not value

