"""Bound-seeded synthesis: baseline costs prune the (S, R, C) sweep lattice.

The baseline suite (:mod:`repro.baselines`) yields *verified* feasible
algorithms whose ``(steps, rounds, chunks)`` costs are free upper bounds on
the Pareto sweep — the same trick superoptimizers use when a cheap greedy
solution seeds the solver search.  A :class:`BoundsLedger` holds that
knowledge plus everything a running sweep learns, and turns it into a
per-step :class:`ProbePlan` that the sweep loop consults before issuing any
solver work.

The lattice algebra rests on one monotonicity fact about SynColl
instances, the *feasibility cone*: an algorithm for ``(S0, R0, C0)`` is
also an algorithm for every ``(S, R, C)`` with ``S >= S0``, ``R >= R0``
and ``C <= C0`` (steps can be split, idle rounds padded, and surplus chunk
levels dropped).  Its contrapositive is the monotone UNSAT cut: UNSAT at
``(S, R, C)`` kills every ``(S', R', C')`` with ``S' <= S``, ``R' <= R``
and ``C' >= C`` on the same structure.

Moving ``S`` at fixed ``R`` assumes a multi-round step can always be split
into single-round steps.  That holds when the multi-link bandwidth
constraints are disjoint (every built-in fabric), and fails when they
overlap: three links out of one node with each *pair* under a shared
bandwidth-1 constraint carry three chunks in one 2-round step but only
two in two 1-round steps (Scatter ``(C, S, R) = (1, 1, 2)`` is SAT and
``(1, 2, 2)`` UNSAT there).  On a fabric where some link sits in two
multi-link constraints the ledger therefore uses only the *padded*
relations, which add or remove an idle one-round step: feasibility
carries to ``(S + d, R + d)`` (and on to any larger ``R``), UNSAT to
``(S - d, R - d)``.

Three pruning rules follow:

* **cut** — a candidate inside a recorded UNSAT's monotone shadow is
  answered with a synthetic UNSAT result (no solver call); the result
  stream stays byte-identical to an unseeded sweep.
* **frontier prune** — once an earlier step count produced a SAT of
  bandwidth cost ``beta_f``, any candidate at a later step count with cost
  ``>= beta_f`` can only yield a Pareto-dominated point (same-or-worse
  bandwidth at strictly worse latency); it is skipped outright.
* **baseline prune** — a candidate with cost *strictly worse* than a
  verified baseline of step count ``<= S`` is dominated by an algorithm we
  already ship; it is skipped outright.  (Strictly: a candidate *matching*
  a baseline's bandwidth may still be the bandwidth-optimal frontier
  terminal and must be probed.)

Cuts preserve the probe stream byte for byte; prunes drop only points the
unseeded sweep would have marked ``pareto_optimal=False`` (or points
dominated by a shipped baseline), so the Pareto-optimal frontier subset is
byte-identical with bounds on or off.  The over-prune guard is structural:
feasible points enter the ledger only after :meth:`Algorithm.verify`, and
:meth:`add_feasible` / :meth:`add_infeasible` raise :class:`BoundsError`
on any feasible/infeasible cone overlap instead of silently mispruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..topology import Topology


class BoundsError(Exception):
    """Raised when the bounds ledger would become inconsistent."""


#: Plan actions, one per candidate: issue the probe, answer it with a
#: synthetic UNSAT (monotone cut), or skip it entirely (dominance prune).
PROBE = "probe"
CUT = "cut"
PRUNE = "prune"


@dataclass(frozen=True)
class FeasiblePoint:
    """One known-feasible lattice point and where it came from."""

    steps: int
    rounds: int
    chunks: int
    source: str  # "baseline:<name>" or "sweep"

    @property
    def bandwidth(self) -> Fraction:
        return Fraction(self.rounds, self.chunks)

    @property
    def lattice(self) -> Tuple[int, int, int]:
        return (self.steps, self.rounds, self.chunks)


@dataclass(frozen=True)
class ProbePlan:
    """Per-candidate actions for one fixed-``S`` sweep, in candidate order."""

    steps: int
    actions: Tuple[str, ...]
    #: Cut witnesses by candidate index: the recorded UNSAT that kills it.
    witnesses: Dict[int, Tuple[int, int, int]]


def steps_splittable(topology: Topology) -> bool:
    """Can every multi-round step be split into single-round steps?

    True unless some link sits in two multi-link bandwidth constraints
    (see the module docstring); nested constraints are flagged too, which
    only costs pruning power.
    """
    shared: set = set()
    for constraint in topology.constraints:
        if len(constraint.links) > 1:
            if shared & constraint.links:
                return False
            shared |= constraint.links
    return True


class BoundsLedger:
    """Feasible/infeasible knowledge about one ``(collective, topology, root)``.

    The ledger is seeded from the baseline suite (:func:`seed_ledger`) and
    fed every sweep result via :meth:`observe`.  The sweep loop asks
    it for a :meth:`plan` per step count; baseline-derived and sweep-derived
    feasible points are tracked separately because they prune differently
    (strict vs non-strict bandwidth comparison — see the module docstring).
    """

    def __init__(self, collective: str, topology: Topology, *, root: int = 0) -> None:
        self.collective = collective
        self.topology = topology
        self.root = root
        self._splittable = steps_splittable(topology)
        self._baselines: List[FeasiblePoint] = []
        self._sweep_sats: List[FeasiblePoint] = []
        self._infeasible: List[Tuple[int, int, int]] = []

    def _reaches(
        self, low: Tuple[int, int, int], high: Tuple[int, int, int]
    ) -> bool:
        """Is ``high`` in the feasible cone of ``low`` (both ``(S, R, C)``)?

        Equivalently: is ``low`` in the UNSAT shadow of ``high``.  Each
        extra step costs an extra round unless steps can be split.
        """
        extra_steps = high[0] - low[0]
        extra_rounds = high[1] - low[1]
        return (
            extra_steps >= 0
            and extra_rounds >= (0 if self._splittable else extra_steps)
            and high[2] <= low[2]
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_feasible(
        self, steps: int, rounds: int, chunks: int, *, source: str = "sweep"
    ) -> None:
        """Record a known-feasible lattice point.

        Raises :class:`BoundsError` if the point sits inside a recorded
        UNSAT's shadow — that would mean a bound was wrong, and a wrong
        bound must fail loudly rather than over-prune silently.
        """
        if steps < 1 or rounds < steps or chunks < 1:
            raise BoundsError(
                f"invalid lattice point (S={steps}, R={rounds}, C={chunks})"
            )
        witness = self.known_infeasible(steps, rounds, chunks)
        if witness is not None:
            raise BoundsError(
                f"feasible point (S={steps}, R={rounds}, C={chunks}) contradicts "
                f"recorded UNSAT at (S={witness[0]}, R={witness[1]}, C={witness[2]})"
            )
        point = FeasiblePoint(steps, rounds, chunks, source)
        store = self._baselines if source.startswith("baseline") else self._sweep_sats
        # Keep only cone-maximal knowledge: drop the new point if an existing
        # one already witnesses it, and existing points the new one subsumes.
        if any(self._reaches(p.lattice, point.lattice) for p in store):
            return
        store[:] = [p for p in store if not self._reaches(point.lattice, p.lattice)]
        store.append(point)

    def add_infeasible(self, steps: int, rounds: int, chunks: int) -> None:
        """Record a proven-UNSAT lattice point (and its monotone shadow)."""
        if steps < 1 or rounds < steps or chunks < 1:
            raise BoundsError(
                f"invalid lattice point (S={steps}, R={rounds}, C={chunks})"
            )
        feasible = self.known_feasible(steps, rounds, chunks)
        if feasible is not None:
            raise BoundsError(
                f"UNSAT at (S={steps}, R={rounds}, C={chunks}) contradicts "
                f"known-feasible point from {feasible}"
            )
        witness = (steps, rounds, chunks)
        if self.known_infeasible(steps, rounds, chunks) is not None:
            return
        self._infeasible = [
            w for w in self._infeasible if not self._reaches(w, witness)
        ]
        self._infeasible.append(witness)

    def observe(self, result) -> None:
        """Fold one sweep :class:`~repro.core.synthesizer.SynthesisResult` in.

        SAT and UNSAT verdicts are sound knowledge (including cache
        replays); UNKNOWN carries none and is ignored.  Synthetic cut
        results re-state what the ledger already knows and are skipped.
        """
        if getattr(result, "provenance", "solved") == "cut":
            return
        instance = result.instance
        if result.is_sat:
            self.add_feasible(
                instance.steps, instance.rounds, instance.chunks_per_node
            )
        elif result.is_unsat:
            self.add_infeasible(
                instance.steps, instance.rounds, instance.chunks_per_node
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def known_feasible(self, steps: int, rounds: int, chunks: int) -> Optional[str]:
        """The source witnessing feasibility of a point, or ``None``."""
        for point in self._baselines + self._sweep_sats:
            if self._reaches(point.lattice, (steps, rounds, chunks)):
                return point.source
        return None

    def known_infeasible(
        self, steps: int, rounds: int, chunks: int
    ) -> Optional[Tuple[int, int, int]]:
        """The recorded UNSAT whose shadow covers a point, or ``None``."""
        for witness in self._infeasible:
            if self._reaches((steps, rounds, chunks), witness):
                return witness
        return None

    def frontier_cap(self, steps: int) -> Optional[Fraction]:
        """Best bandwidth cost among sweep SATs at *strictly earlier* steps."""
        costs = [p.bandwidth for p in self._sweep_sats if p.steps < steps]
        return min(costs) if costs else None

    def baseline_cap(self, steps: int) -> Optional[Fraction]:
        """Best bandwidth cost among baselines at step count ``<= steps``."""
        costs = [p.bandwidth for p in self._baselines if p.steps <= steps]
        return min(costs) if costs else None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self, steps: int, candidates: Sequence[Tuple[int, int]]
    ) -> ProbePlan:
        """Classify each ``(rounds, chunks)`` candidate of a fixed-``S`` sweep.

        Candidates arrive in ascending bandwidth-cost order, so the prune
        decisions form a tail; each candidate is still judged independently
        so the algebra holds for arbitrary point sets too.
        """
        beta_f = self.frontier_cap(steps)
        beta_b = self.baseline_cap(steps)
        actions: List[str] = []
        witnesses: Dict[int, Tuple[int, int, int]] = {}
        for index, (rounds, chunks) in enumerate(candidates):
            cost = Fraction(rounds, chunks)
            if (beta_f is not None and cost >= beta_f) or (
                beta_b is not None and cost > beta_b
            ):
                actions.append(PRUNE)
                continue
            witness = self.known_infeasible(steps, rounds, chunks)
            if witness is not None:
                actions.append(CUT)
                witnesses[index] = witness
                continue
            actions.append(PROBE)
        return ProbePlan(steps=steps, actions=tuple(actions), witnesses=witnesses)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sources(self) -> List[str]:
        """Provenance of every seeded upper bound (stable order)."""
        return sorted({p.source for p in self._baselines})



def cut_result(
    collective: str,
    topology: Topology,
    steps: int,
    rounds: int,
    chunks: int,
    *,
    root: int = 0,
    witness: Optional[Tuple[int, int, int]] = None,
    instance=None,
):
    """A synthetic UNSAT result for a candidate killed by a monotone cut.

    Positionally byte-identical to a solver UNSAT in the sweep's result
    stream; ``provenance="cut"`` records that no solver ran, and the
    witness travels in ``solver_stats`` for forensics.  ``instance`` is the
    candidate's instance when the caller already built it.
    """
    from ..core.instance import make_instance
    from ..core.synthesizer import SynthesisResult
    from ..solver import SolveResult

    if instance is None:
        instance = make_instance(collective, topology, chunks, steps, rounds, root=root)
    stats: Dict[str, float] = {}
    if witness is not None:
        stats = {
            "cut_witness_steps": witness[0],
            "cut_witness_rounds": witness[1],
            "cut_witness_chunks": witness[2],
        }
    return SynthesisResult(
        instance=instance,
        status=SolveResult.UNSAT,
        backend="bounds",
        solver_stats=stats,
        provenance="cut",
    )


def seed_ledger(collective: str, topology: Topology, *, root: int = 0) -> BoundsLedger:
    """Build a ledger seeded with every applicable verified baseline.

    Baselines that do not fit the collective or topology (no Hamiltonian
    ring, unmodeled fabric, ...) are skipped; each admitted bound comes
    from an algorithm that passed :meth:`Algorithm.verify`, so a seeded
    bound can never claim feasibility the lattice does not have.
    """
    from ..baselines.suite import baseline_suite

    ledger = BoundsLedger(collective, topology, root=root)
    for baseline in baseline_suite(collective, topology, root=root):
        steps, rounds, chunks = baseline.cost()
        ledger.add_feasible(steps, rounds, chunks, source=f"baseline:{baseline.name}")
    return ledger
