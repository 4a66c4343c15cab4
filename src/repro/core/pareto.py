"""Pareto-optimal synthesis — Algorithm 1 of the paper.

``Pareto-Synthesize(k, Coll, P, B)`` enumerates step counts ``S`` starting
from the latency lower bound ``a_l``.  For each ``S`` it builds the
candidate set ``A = {(R, C) | S <= R <= S + k  and  R / C >= b_l}``, checks
candidates in ascending order of bandwidth cost ``R / C`` and reports the
first satisfiable one; that algorithm is Pareto-optimal for the current
``S``.  The enumeration stops as soon as an algorithm matching the
bandwidth lower bound ``b_l`` has been reported (or a step budget or the
time limit runs out — the paper notes the procedure need not terminate
for every collective, Broadcast on the DGX-1 being the canonical example).

Combining collectives are handled by delegation (Section 3.5):
Reducescatter and Allreduce reuse the Allgather enumeration, Reduce reuses
Broadcast.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ..collectives import get_collective
from ..solver import SolveResult
from ..telemetry import get_tracer
from ..topology import Topology
from .algorithm import Algorithm
from .bounds import lower_bounds
from .combining import allreduce_from_allgather, invert_algorithm
from .cost import cost_point, is_pareto_optimal
from .synthesizer import SynthesisResult, deadline_after, seconds_left


class ParetoError(Exception):
    """Raised for invalid Pareto-synthesis parameters."""


@dataclass
class ParetoPoint:
    """One row of the paper's Table 4 / Table 5."""

    collective: str
    chunks_per_node: int
    steps: int
    rounds: int
    status: SolveResult
    synthesis_time: float
    algorithm: Optional[Algorithm] = None
    latency_optimal: bool = False
    bandwidth_optimal: bool = False
    pareto_optimal: bool = False
    proved: bool = True  # False when resource limits made lower candidates UNKNOWN
    unsat_probes: int = 0
    backend: str = "cdcl"    # provenance: "cdcl", "bounds" or "cache"
    cache_hit: bool = False  # True when replayed from the algorithm cache

    @property
    def signature(self) -> Tuple[int, int, int]:
        return (self.chunks_per_node, self.steps, self.rounds)

    def optimality_label(self) -> str:
        labels = []
        if self.latency_optimal:
            labels.append("Latency")
        if self.bandwidth_optimal:
            labels.append("Bandwidth")
        if len(labels) == 2:
            return "Both"
        return labels[0] if labels else ""

    def provenance_label(self) -> str:
        """``"cached"`` for replayed rows, the backend name for solved ones."""
        return "cached" if self.cache_hit else self.backend

    def to_dict(self, include_timing: bool = True) -> dict:
        data = {
            "collective": self.collective,
            "C": self.chunks_per_node,
            "S": self.steps,
            "R": self.rounds,
            "status": self.status.value,
            "latency_optimal": self.latency_optimal,
            "bandwidth_optimal": self.bandwidth_optimal,
            "pareto_optimal": self.pareto_optimal,
            "proved": self.proved,
            "unsat_probes": self.unsat_probes,
            "algorithm": None if self.algorithm is None else self.algorithm.to_dict(),
        }
        if include_timing:
            data["synthesis_time"] = self.synthesis_time
            data["backend"] = self.backend
            data["cache_hit"] = self.cache_hit
        return data


@dataclass
class ParetoFrontier:
    """Result of a Pareto-Synthesize run."""

    collective: str
    topology_name: str
    k: int
    latency_lower_bound: int
    bandwidth_lower_bound: Fraction
    points: List[ParetoPoint] = field(default_factory=list)
    exhausted_steps: bool = False
    total_time: float = 0.0
    strategy: str = "serial"
    backend: str = "cdcl"
    engine_stats: Dict[str, int] = field(default_factory=dict)
    #: Bound-seeding mode the run used: "baseline" or "off".
    bounds: str = "off"
    #: Provenance of the seeded upper bounds (e.g. "baseline:ring").
    bound_sources: List[str] = field(default_factory=list)
    #: Why the sweep probed nothing, or where the time limit cut it ("" if neither).
    note: str = ""
    #: True when the time limit ended the sweep: the points are those found
    #: before it, and the frontier may lack the rest.
    deadline_cut: bool = False

    def algorithms(self) -> List[Algorithm]:
        return [p.algorithm for p in self.points if p.algorithm is not None]

    def best_for_size(self, size_bytes: float, alpha: float, beta: float) -> ParetoPoint:
        if not self.points:
            raise ParetoError("empty frontier")
        return min(
            (p for p in self.points if p.algorithm is not None),
            key=lambda p: p.algorithm.cost(size_bytes, alpha, beta),
        )

    def table_rows(self) -> List[dict]:
        """Rows shaped like the paper's Tables 4/5."""
        return [
            {
                "collective": point.collective,
                "C": point.chunks_per_node,
                "S": point.steps,
                "R": point.rounds,
                "optimality": point.optimality_label(),
                "time_s": round(point.synthesis_time, 2),
                "solved_by": point.provenance_label(),
            }
            for point in self.points
        ]

    def to_dict(self, include_timing: bool = True) -> dict:
        """JSON-friendly serialization of the whole frontier.

        ``include_timing=False`` drops wall-clock and provenance fields, so
        two runs over the same inputs serialize byte-identically regardless
        of scheduling — the determinism tests compare serial and parallel
        sweeps this way.
        """
        data = {
            "collective": self.collective,
            "topology": self.topology_name,
            "k": self.k,
            "latency_lower_bound": self.latency_lower_bound,
            "bandwidth_lower_bound": [
                self.bandwidth_lower_bound.numerator,
                self.bandwidth_lower_bound.denominator,
            ],
            "exhausted_steps": self.exhausted_steps,
            "points": [p.to_dict(include_timing=include_timing) for p in self.points],
        }
        if include_timing:
            data["total_time"] = self.total_time
            data["strategy"] = self.strategy
            data["backend"] = self.backend
            data["engine_stats"] = dict(self.engine_stats)
            data["bounds"] = self.bounds
            data["bound_sources"] = list(self.bound_sources)
        return data


def candidate_set(
    steps: int, k: int, bandwidth_lower: Fraction, max_chunks: Optional[int] = None
) -> List[Tuple[int, int]]:
    """The candidate set ``A`` for a given S: (R, C) pairs ordered by R/C.

    ``R`` ranges over ``S .. S + k`` and ``C`` over ``1 .. floor(R / b_l)``
    (the bandwidth lower bound caps useful chunk counts; without ``k`` the
    set would be unbounded).  Ties in ``R / C`` are broken toward fewer
    rounds, which produces smaller encodings first.
    """
    if bandwidth_lower <= 0:
        raise ParetoError("bandwidth lower bound must be positive")
    candidates: List[Tuple[int, int]] = []
    for rounds in range(steps, steps + k + 1):
        chunk_cap = int(Fraction(rounds, 1) / bandwidth_lower)
        if max_chunks is not None:
            chunk_cap = min(chunk_cap, max_chunks)
        for chunks in range(1, chunk_cap + 1):
            if Fraction(rounds, chunks) >= bandwidth_lower:
                candidates.append((rounds, chunks))
    candidates.sort(key=lambda rc: (Fraction(rc[0], rc[1]), rc[0], rc[1]))
    return candidates


def pareto_synthesize(
    collective: str,
    topology: Topology,
    k: int = 0,
    *,
    root: int = 0,
    max_steps: Optional[int] = None,
    max_chunks: Optional[int] = None,
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    on_result: Optional[Callable[[SynthesisResult], None]] = None,
    strategy: str = "incremental",
    max_workers: Optional[int] = None,
    cache=None,
    bounds: Optional[str] = "baseline",
) -> ParetoFrontier:
    """Run Algorithm 1 for a collective on a topology.

    Parameters
    ----------
    collective:
        Any collective from Table 2, including combining ones (handled via
        the Section 3.5 reduction).
    k:
        The synchrony budget: rounds may exceed steps by at most ``k``.
    max_steps:
        Upper bound on the enumerated step count, at least 1 (defaults to
        the latency lower bound plus 8); needed because the procedure does
        not always terminate on its own.
    max_chunks:
        Upper bound on the per-node chunk count of a candidate, at least 1
        (defaults to what the bandwidth lower bound leaves useful).  Alltoall
        is probed only at multiples of the node count.
    time_limit:
        Wall-clock seconds for the whole call, one deadline from entry; past
        it no probe starts and the frontier is marked ``deadline_cut``.
    conflict_limit:
        Conflict budget per solver call; an exhausted budget yields an
        UNKNOWN candidate, skipped but recorded (``proved=False``).
    strategy:
        Which executor answers the sweep loop's probes (the loop itself —
        :class:`~repro.engine.dispatch.Dispatcher` — is the same for all):
        ``"incremental"`` (default; one shared-prefix encoding per step
        count probed via per-candidate assumption frames), ``"serial"``
        (cold encode+solve per candidate, the paper's loop), ``"parallel"``
        (the exact formulas solved ahead of the loop in a process pool, one
        step count at a time) or ``"speculative"`` (the same pool also
        started on the next step count while this one is in flight).
        Results are consumed strictly in candidate order, so the
        frontier's points and verdicts do not depend on the choice; under
        ``conflict_limit`` a point's ``proved`` flag can (the family frames
        decide probes that cold exact formulas exhaust their budget on;
        ROADMAP item 2(c)).
    max_workers:
        Worker-process count for the parallel/speculative strategies.
    cache:
        An :class:`~repro.engine.cache.AlgorithmCache`; hits replay persisted
        SAT/UNSAT probes without touching the solver.
    bounds:
        Bound-seeded pruning (on by default).  ``"baseline"`` seeds a
        :class:`~repro.engine.bounds.BoundsLedger` from the verified
        baseline suite so dominated candidates are skipped and monotone
        UNSAT cuts propagate across the sweep; ``"off"`` (or ``None``)
        disables seeding.  The Pareto-optimal frontier points are identical
        with bounds on or off — pruning only removes dominated probes.

    Spans go to the ambient tracer (:func:`~repro.telemetry.tracing`).
    """
    from ..engine.bounds import seed_ledger
    from ..engine.dispatch import SweepRequest, SweepStats, make_dispatcher

    deadline = deadline_after(time_limit)
    spec = get_collective(collective)
    if k < 0:
        raise ParetoError("k must be non-negative")
    if max_steps is not None and max_steps < 1:
        raise ParetoError(f"max_steps must be at least 1, got {max_steps}")
    if max_chunks is not None and max_chunks < 1:
        raise ParetoError(f"max_chunks must be at least 1, got {max_chunks}")
    if not spec.root_based and root != 0:
        raise ParetoError(f"{spec.name} has no root, got root={root}")

    options = dict(
        root=root,
        max_steps=max_steps,
        max_chunks=max_chunks,
        time_limit=seconds_left(deadline),
        conflict_limit=conflict_limit,
        on_result=on_result,
        strategy=strategy,
        max_workers=max_workers,
        cache=cache,
        bounds=bounds,
    )

    # --- combining collectives: delegate to the non-combining counterpart ----
    if spec.combining:
        return _pareto_synthesize_combining(spec.name, topology, k, **options)

    if bounds is None or bounds == "off":
        ledger = None
        bounds_mode = "off"
    elif bounds == "baseline":
        ledger = seed_ledger(spec.name, topology, root=root)
        bounds_mode = "baseline"
    else:
        raise ParetoError(f"unknown bounds mode {bounds!r}")

    start_time = time.monotonic()
    dispatcher = make_dispatcher(strategy, max_workers=max_workers)
    sweep_stats = SweepStats()
    a_l, b_l = lower_bounds(spec.name, topology, root=root)
    if max_steps is None:
        max_steps = a_l + 8
    frontier = ParetoFrontier(
        collective=spec.name,
        topology_name=topology.name,
        k=k,
        latency_lower_bound=a_l,
        bandwidth_lower_bound=b_l,
        strategy=strategy,
        bounds=bounds_mode,
        bound_sources=ledger.sources() if ledger is not None else [],
    )
    pareto_ctx = get_tracer().span(
        "pareto", collective=spec.name, topology=topology.name, k=k,
        strategy=strategy, bounds=bounds_mode,
    )

    def candidates(steps: int) -> Tuple[Tuple[int, int], ...]:
        pairs = candidate_set(steps, k, b_l, max_chunks)
        if spec.name == "Alltoall":
            # a_l and b_l hold where the transpose is balanced, at multiples
            # of N; at C = 1 every chunk goes to node 0 (a Gather).
            pairs = [pair for pair in pairs if pair[1] % topology.num_nodes == 0]
        return tuple(pairs)

    def build_request(steps: int) -> SweepRequest:
        return SweepRequest(
            collective=spec.name,
            topology=topology,
            steps=steps,
            candidates=candidates(steps),
            root=root,
            deadline=deadline,
            conflict_limit=conflict_limit,
            bounds=ledger,
        )

    def ingest_sweep(outcome) -> bool:
        """Fold one sweep outcome into the frontier; True at bandwidth-optimal."""
        sweep_stats.merge(outcome.stats)
        proved = True
        unsat_probes = 0
        for result in outcome.results:
            if on_result is not None:
                on_result(result)
            if result.is_unknown:
                proved = False
                continue
            if result.is_unsat:
                unsat_probes += 1
                continue
            chunks = result.instance.chunks_per_node
            steps = result.instance.steps
            rounds = result.instance.rounds
            point = ParetoPoint(
                collective=spec.name,
                chunks_per_node=chunks,
                steps=steps,
                rounds=rounds,
                status=result.status,
                synthesis_time=result.total_time,
                algorithm=result.algorithm,
                latency_optimal=(steps == a_l),
                bandwidth_optimal=(Fraction(rounds, chunks) == b_l),
                proved=proved,
                unsat_probes=unsat_probes,
                backend=result.backend,
                cache_hit=result.cache_hit,
            )
            frontier.points.append(point)
            return point.bandwidth_optimal
        # No satisfiable candidate at this step count; keep increasing S.
        return False

    step_counts = list(range(a_l, max_steps + 1))
    if not step_counts:
        frontier.note = (
            f"no step count to probe: max_steps={max_steps} is below the "
            f"{spec.name} latency lower bound {a_l}"
        )
    elif not candidates(max_steps):
        # The last step count has the most rounds, so the most candidates.
        frontier.note = (
            f"no candidate to probe: {spec.name} is probed at chunk counts that "
            f"are multiples of {topology.num_nodes}, and max_chunks={max_chunks} "
            f"or the bandwidth lower bound leaves none up to max_steps={max_steps}"
        )
        step_counts = []
    with pareto_ctx as pareto_span:
        # Outcomes are folded in as the loop produces them; the loop stops
        # after the first one that reaches the bandwidth bound.  Stopping on
        # the final step count still reports the budget as exhausted; a
        # sweep that probed no step count exhausted nothing.
        outcomes = dispatcher.run(
            [build_request(steps) for steps in step_counts],
            cache=cache,
            stop=ingest_sweep,
        )
        cut = frontier.deadline_cut = bool(outcomes) and outcomes[-1].deadline_cut
        frontier.exhausted_steps = not cut and 0 < len(outcomes) == len(step_counts)
        if cut:
            frontier.note = f"the time limit ran out at S={step_counts[len(outcomes) - 1]}"

        _mark_pareto_optimal(frontier)
        frontier.total_time = time.monotonic() - start_time
        frontier.engine_stats = sweep_stats.as_dict()
        pareto_span.set(points=len(frontier.points))

    return frontier


def _mark_pareto_optimal(frontier: ParetoFrontier) -> None:
    points = [p for p in frontier.points if p.status is SolveResult.SAT]
    cost_points = [cost_point(p.steps, p.rounds, p.chunks_per_node) for p in points]
    for point, cp in zip(points, cost_points):
        point.pareto_optimal = is_pareto_optimal(cp, [o for o in cost_points if o != cp])


def _pareto_synthesize_combining(
    collective: str, topology: Topology, k: int, **options
) -> ParetoFrontier:
    """Reduce Reducescatter / Reduce / Allreduce synthesis to the non-combining base."""
    base_collective = {"Reducescatter": "Allgather", "Reduce": "Broadcast", "Allreduce": "Allgather"}[
        collective
    ]
    base_topology = topology if collective == "Allreduce" else topology.reversed()
    base = pareto_synthesize(base_collective, base_topology, k, **options)
    frontier = ParetoFrontier(
        collective=collective,
        topology_name=topology.name,
        k=k,
        latency_lower_bound=(
            2 * base.latency_lower_bound if collective == "Allreduce" else base.latency_lower_bound
        ),
        bandwidth_lower_bound=(
            _allreduce_bandwidth_bound(base, topology)
            if collective == "Allreduce"
            else base.bandwidth_lower_bound
        ),
        total_time=base.total_time,
        exhausted_steps=base.exhausted_steps,
        strategy=base.strategy,
        backend=base.backend,
        engine_stats=dict(base.engine_stats),
        bounds=base.bounds,
        bound_sources=list(base.bound_sources),
        note=base.note,
        deadline_cut=base.deadline_cut,
    )
    for base_point in base.points:
        algorithm = base_point.algorithm
        if algorithm is None:
            continue
        if collective == "Allreduce":
            derived = allreduce_from_allgather(algorithm)
            chunks = algorithm.num_chunks
            steps = 2 * base_point.steps
            rounds = 2 * base_point.rounds
        else:
            derived = invert_algorithm(algorithm, collective=collective, target_topology=topology)
            chunks = base_point.chunks_per_node
            steps = base_point.steps
            rounds = base_point.rounds
        derived.verify()
        frontier.points.append(
            ParetoPoint(
                collective=collective,
                chunks_per_node=chunks,
                steps=steps,
                rounds=rounds,
                status=base_point.status,
                synthesis_time=base_point.synthesis_time,
                algorithm=derived,
                latency_optimal=base_point.latency_optimal,
                bandwidth_optimal=base_point.bandwidth_optimal,
                proved=base_point.proved,
                unsat_probes=base_point.unsat_probes,
                backend=base_point.backend,
                cache_hit=base_point.cache_hit,
            )
        )
    _mark_pareto_optimal(frontier)
    return frontier


def _allreduce_bandwidth_bound(base: "ParetoFrontier", topology: Topology) -> Fraction:
    """Allreduce bandwidth bound: twice the Allgather bound, re-normalized.

    An Allreduce with per-node chunk count ``P * C_ag`` spends ``2 * R_ag``
    rounds, so its bandwidth cost is ``2 R_ag / (P C_ag)`` — i.e. two times
    the Allgather bound divided by ``P``.
    """
    return Fraction(2, topology.num_nodes) * base.bandwidth_lower_bound
