"""The candidate-sweep loop of Pareto-Synthesize and its three executors.

Algorithm 1 is one loop: for each step count ``S``, probe the ``(R, C)``
candidates in cost order, keep the first satisfiable one, stop once the
bandwidth bound is met.  :class:`Dispatcher` is that loop, written once.
It owns every decision — the bounds ledger's plan when a step count
becomes current, dominance prunes, monotone cuts, cache replays, the
first-SAT truncation, the UNKNOWN policy and the deadline (below), cache
writes, ledger feedback and telemetry — and asks an *executor* for one
thing only: the result of ``(S, R, C)``.

Three executors answer that question, and the four strategy names select
among them (``make_dispatcher``):

* :class:`InlineExecutor` (``serial``) — a cold encode+solve of the exact
  standalone formula, in this process.
* :class:`FamilyExecutor` (``incremental``, the default) — one
  shared-prefix encoding per step count, sized from the prefetch hint,
  answers every ``(R, C)`` candidate under an assumption frame.
* :class:`PoolExecutor` (``parallel`` and ``speculative``) — the exact
  formulas again, solved ahead of the loop in one process pool per run.
  The loop hands it a *prefetch hint* — the probes it is about to ask
  for: the current step count's plus ``lookahead`` later ones (0 for
  ``parallel``, 1 for ``speculative``) — and the pool works through the
  hint while the loop awaits results strictly in candidate order.  Work
  past a SAT or a satisfied ``stop`` is cancelled and never awaited.

Sequential semantics are the single source of truth; parallelism is an
opportunistic property of the executor (PopPy's position).  Because the
loop consumes results in order, the three exact-formula strategies report
byte-identical frontiers and the family strategy the same verdicts.

The UNKNOWN policy.  A family frame is a larger formula than the exact
one, so it can exhaust a conflict budget the exact formula would not.
SAT and UNSAT answers of a frame are sound and never retried.  The first
frame of a step count that comes back UNKNOWN is answered again on the
exact formula — whose verdict is reported, with the frame's encode and
solve time added to its own, so the phases of a sweep add up to what it
cost — and marks that step count *budget-bound*: its remaining probes go
straight to the exact formula, no frame, no retry, and report exactly what
``serial`` would.  The next step count starts on its family again.  A
budget is thus spent twice at most once per step count, never once per
probe; the family stays an accelerator where its frames decide and stops
being a decelerator where they do not.

The deadline.  Wall clock is bounded once per run, by one absolute
``time.monotonic()`` ``deadline`` (system-wide, so pool workers read the
same clock); per probe only ``conflict_limit`` bounds work.  Executors
solve with the time left; past the deadline the loop starts no probe
(cache replays still answer), retries no UNKNOWN, marks the outcome
``deadline_cut`` and ends the run.

When the pool pays off: it overlaps probes, so it wins when probes are
long (``benchmarks/`` sweep ablation, DGX-1 Allgather under
``conflict_limit=1000`` on a 2-core host: speculative 1.8-2.2 s, parallel
1.7-2.9 s, serial 3.0-3.9 s, incremental 4.2-6.3 s — one frame and one
retry per budget-bound step count over serial).  It loses on sub-second
frontiers, where spawning workers and pickling results costs more than the
solves (``bench/`` ``frontier_cold``, two DGX-1 rows, one of them
budget-bound: serial 0.12 s, incremental 0.12 s, parallel 0.26 s,
speculative 0.31 s).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional, Protocol, Sequence, Tuple,
)

from ..core.encoding import PrefixAnalysis, ScclEncoding
from ..core.instance import SynCollInstance, make_instance
from ..core.synthesizer import SynthesisError, count_solver_call, finish_probe, seconds_left
from ..solver import SolveResult
from ..telemetry import get_metrics, get_tracer
from ..topology import Topology
from .backends import CdclHandle
from .bounds import CUT, PROBE, PRUNE, BoundsLedger, ProbePlan, cut_result
from .cache import AlgorithmCache, instance_fingerprint, lookup_result, store_result

if TYPE_CHECKING:  # the pool's modules load with the pool, in ``prefetch``
    from concurrent.futures import Future, ProcessPoolExecutor

#: The sweep strategy names — the only list of them; the CLI choices derive
#: theirs from it.
STRATEGIES = ("serial", "incremental", "parallel", "speculative")

#: Later step counts a pool strategy includes in each prefetch hint.
_POOL_LOOKAHEAD = {"parallel": 0, "speculative": 1}


class DispatchError(Exception):
    """Raised for invalid dispatcher configurations."""


@dataclass(frozen=True)
class SweepRequest:
    """One fixed-``S`` candidate sweep: the (R, C) list in probe order."""

    collective: str
    topology: Topology
    steps: int
    candidates: Tuple[Tuple[int, int], ...]  # (rounds, chunks) in cost order
    root: int = 0
    #: The run's ``time.monotonic()`` deadline (None for no limit).
    deadline: Optional[float] = None
    conflict_limit: Optional[int] = None
    stop_at_first_sat: bool = True
    #: Bound-seeded pruning: a shared :class:`~repro.engine.bounds.BoundsLedger`
    #: consulted before any solver work.  Candidates it classifies as
    #: dominance-pruned are skipped outright, candidates inside a recorded
    #: UNSAT's monotone shadow are answered with a synthetic cut result, and
    #: every verdict is fed back via ``observe`` so later sweeps prune
    #: harder.  ``None`` disables seeding.
    bounds: Optional[BoundsLedger] = None


@dataclass
class SweepStats:
    """Work accounting for one or more sweeps."""

    encode_calls: int = 0
    solver_calls: int = 0
    cache_hits: int = 0
    candidates_probed: int = 0
    unknown_retries: int = 0
    #: Candidates skipped outright by dominance pruning (no result emitted).
    probes_pruned: int = 0
    #: Candidates answered by a synthetic monotone-cut UNSAT (no solver call).
    probes_cut: int = 0

    def merge(self, other: "SweepStats") -> None:
        for item in fields(self):
            setattr(self, item.name, getattr(self, item.name) + getattr(other, item.name))

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class SweepOutcome:
    """Per-candidate results in probe order, truncated at the first SAT."""

    results: List = field(default_factory=list)  # List[SynthesisResult]
    stats: SweepStats = field(default_factory=SweepStats)
    #: True when the deadline ended the run inside this sweep.
    deadline_cut: bool = False

    @property
    def first_sat(self):
        for result in self.results:
            if result.is_sat:
                return result
        return None


class Probe(NamedTuple):
    """One lattice point the loop wants a result for."""

    request: SweepRequest
    rounds: int
    chunks: int
    #: The point's instance.  The loop builds one per lattice point and run
    #: (:func:`make_probe`); cache lookups, executors and results share it.
    instance: SynCollInstance

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.request.steps, self.rounds, self.chunks)


def make_probe(request: SweepRequest, rounds: int, chunks: int) -> Probe:
    """The probe of ``(request.steps, rounds, chunks)``, instance included."""
    instance = make_instance(
        request.collective, request.topology, chunks,
        request.steps, rounds, root=request.root,
    )
    return Probe(request, rounds, chunks, instance)


# ----------------------------------------------------------------------
# Executors: "the result of (S, R, C)"
# ----------------------------------------------------------------------
class Executor(Protocol):
    """What the loop needs from whatever solves its probes.

    The loop never asks for a pruned, cut or cached candidate, awaits
    results strictly in candidate order, and stops asking at the first SAT
    of a step count and once ``stop`` accepts an outcome.
    """

    #: True when results come from the exact standalone formula.  A derived
    #: formula can exhaust a budget the exact one would not: the loop asks
    #: the exact formula again and stops asking the executor for that step
    #: count (the UNKNOWN policy, module docstring).
    exact: bool
    #: Later step counts included in each prefetch hint.
    lookahead: int
    #: Encodings built so far for the results handed out.
    encode_calls: int

    def prefetch(self, probes: Sequence[Probe]) -> None:
        """The probes the loop is about to ask for, in order; a superset of
        what it will.  Replaces the previous hint."""

    def result(self, probe: Probe):
        """The :class:`~repro.core.synthesizer.SynthesisResult` for ``probe``."""

    def close(self) -> None:
        """The run is over: drop whatever was never asked for."""


def _solve_exact(probe: Probe):
    """Cold encode+solve of the standalone formula.

    The inline executor, the pool's workers, the UNKNOWN retry and the
    probes of a budget-bound step count all answer with this, so they
    agree bit for bit.  Uncounted: the loop counts what it awaits.
    """
    from ..core.synthesizer import _probe

    request = probe.request
    return _probe(
        probe.instance,
        deadline=request.deadline,
        conflict_limit=request.conflict_limit,
    )


class InlineExecutor:
    """The paper's loop body: one cold solve per probe, in this process."""

    exact = True
    lookahead = 0

    def __init__(self) -> None:
        self.encode_calls = 0

    def prefetch(self, probes: Sequence[Probe]) -> None:
        pass

    def result(self, probe: Probe):
        self.encode_calls += 1
        return _solve_exact(probe)

    def close(self) -> None:
        pass


@dataclass
class _FamilyEntry:
    """One step count's shared-prefix encoding plus its solver handle."""

    encoder: ScclEncoding
    handle: CdclHandle
    trivially_unsat: bool = False
    pending_encode_time: float = 0.0  # attributed to the next probe
    prev_stats: Dict[str, float] = field(default_factory=dict)

    def solve(self, probe: Probe) -> Tuple[SolveResult, Dict[str, float]]:
        """The verdict of ``probe``'s frame and the search it cost."""
        if self.trivially_unsat:
            return SolveResult.UNSAT, {}
        request = probe.request
        status = self.handle.solve(
            self.encoder.frame_assumptions(probe.chunks, probe.rounds),
            conflict_limit=request.conflict_limit, time_limit=seconds_left(request.deadline),
        )
        # The handle's counters are cumulative: report this frame's.
        raw = self.handle.stats()
        previous, self.prev_stats = self.prev_stats, dict(raw)
        return status, {
            key: value if key == "max_decision_level"
            else value - previous.get(key, 0)
            for key, value in raw.items()
        }


class FamilyExecutor:
    """Assumption frames over one shared-prefix encoding per step count.

    Per step count ``S`` the executor builds one *shared-prefix* encoding
    (``chunk_selector=True`` with a rounds budget) into one persistent
    solver handle, so every ``(R, C)`` candidate of a fixed-``S`` sweep is
    an assumption frame over it — one encode per ``S`` instead of one per
    candidate — and the solver's learned clauses carry over between probes.
    The ``S``-independent reachability analysis behind variable pruning is
    computed once per run and shared by every per-``S`` encoding.

    Each encoding is sized from the prefetch hint: its chunk and rounds
    budgets are the largest ``C`` and ``R`` among the probes the loop will
    ask for at that step count.  The hint never holds a pruned, cut or
    cached candidate, so a sweep whose large candidates were all pruned
    never pays for their variables.  An encoding is built once and never
    grown: a probe outside its step count's hinted budgets is a bug in the
    loop, and raises.

    Satisfiability is identical to a cold encode at the probed candidate:
    widening the per-step round domains is inert once the total is pinned
    (every other step performs at least one round, so no step can exceed
    ``R - (S - 1)``), the selector assumptions force the total exactly, and
    disabled chunk levels can neither send nor owe postconditions.  A frame
    is still a *larger* formula than the cold one (``exact`` is False), so
    it can exhaust a conflict budget the cold formula would not:
    the loop's UNKNOWN policy (module docstring) handles that.
    """

    exact = False
    lookahead = 0

    def __init__(self, request: SweepRequest) -> None:
        self._analysis = PrefixAnalysis(request.topology)
        self._entries: Dict[int, _FamilyEntry] = {}
        self._budgets: Dict[int, Tuple[int, int]] = {}  # steps -> (C, R)
        self.encode_calls = 0

    def prefetch(self, probes: Sequence[Probe]) -> None:
        budgets: Dict[int, Tuple[int, int]] = {}
        for probe in probes:
            chunks, rounds = budgets.get(probe.request.steps, (0, 0))
            budgets[probe.request.steps] = (
                max(chunks, probe.chunks), max(rounds, probe.rounds)
            )
        self._budgets = budgets

    def _entry_for(self, probe: Probe) -> _FamilyEntry:
        """``probe``'s step count's entry, encoded at the hinted budgets."""
        request = probe.request
        steps = request.steps
        entry = self._entries.get(steps)
        if entry is None:
            chunks, rounds = self._budgets.get(steps, (0, 0))
        else:
            chunks = entry.encoder.instance.chunks_per_node
            rounds = entry.encoder.instance.rounds
        if probe.chunks > chunks or probe.rounds > rounds:
            raise DispatchError(
                f"probe S={steps} R={probe.rounds} C={probe.chunks} is outside "
                f"the hinted budgets of its step count (C<={chunks}, R<={rounds})"
            )
        if entry is not None:
            return entry
        with get_tracer().span("encode", S=steps, C=chunks, R=rounds, family=True):
            start = time.monotonic()
            encoder = ScclEncoding(
                make_instance(
                    request.collective, request.topology, chunks, steps, rounds,
                    root=request.root,
                ),
                rounds_budget=rounds,
                chunk_selector=True,
                analysis=self._analysis,
            )
            encoder.encode()
            elapsed = time.monotonic() - start
        self.encode_calls += 1
        handle = CdclHandle()
        entry = self._entries[steps] = _FamilyEntry(
            encoder=encoder,
            handle=handle,
            trivially_unsat=not handle.load(encoder.cnf),
            pending_encode_time=elapsed,
        )
        return entry

    def result(self, probe: Probe):
        request = probe.request
        instance = probe.instance
        with get_tracer().span(
            "probe",
            collective=request.collective,
            C=probe.chunks,
            S=request.steps,
            R=probe.rounds,
            backend=CdclHandle.name,
        ) as probe_span:
            entry = self._entry_for(probe)
            encode_time, entry.pending_encode_time = entry.pending_encode_time, 0.0
            result = finish_probe(
                instance, lambda: entry.solve(probe),
                lambda: entry.encoder.decode(entry.handle.model(), instance=instance),
                backend=CdclHandle.name, encode_time=encode_time,
                encoding_stats=entry.encoder.stats.as_dict(),
            )
            probe_span.set(verdict=result.status.value, cache_hit=False)
            algorithm = result.algorithm
            if algorithm is not None and (
                algorithm.total_rounds != probe.rounds
                or algorithm.num_chunks != instance.num_chunks
            ):  # pragma: no cover - selector guard
                raise SynthesisError(
                    f"selector leak: asked for {probe.rounds} rounds and "
                    f"{instance.num_chunks} chunks, decoded "
                    f"{algorithm.total_rounds} and {algorithm.num_chunks}"
                )
            return result

    def close(self) -> None:
        pass


#: Per-worker run context installed by the pool initializer, so the request
#: (topology object, limits, deadline) is pickled once per worker instead of
#: once per probe.
_WORKER_SHARED: Optional[Tuple[SweepRequest, bool]] = None


def _init_pool_worker(request: SweepRequest, trace: bool) -> None:
    """Pool initializer: install the run context in this worker."""
    global _WORKER_SHARED
    _WORKER_SHARED = (request, trace)


def _solve_in_worker(key: Tuple[int, int, int]):
    """Solve one ``(steps, rounds, chunks)`` probe of the installed run."""
    if _WORKER_SHARED is None:  # pragma: no cover - initializer contract
        raise DispatchError("worker used before _init_pool_worker ran")
    request, trace = _WORKER_SHARED
    steps, rounds, chunks = key
    probe = make_probe(replace(request, steps=steps), rounds, chunks)
    if not trace:
        return _solve_exact(probe)
    # The parent is tracing: record this probe with a private worker tracer
    # and ship the span forest back in the pickled result.  The loop
    # re-parents it under its sweep span, keeping this process's pid/tid.
    from ..telemetry import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        result = _solve_exact(probe)
    result.trace = tracer.export()
    return result


class PoolExecutor:
    """Exact formulas solved ahead of the loop in one process pool per run.

    ``prefetch`` submits the hinted probes it has not seen (FIFO, so the
    current step count runs first) and cancels the ones no longer hinted;
    ``result`` waits for one.  The pool starts with the first hint that
    holds two probes — with nothing to overlap, ``result`` solves inline —
    and the pool's modules (``multiprocessing``) load with the pool.  A
    worker answers with :func:`_solve_exact`, the inline executor's own
    in-house CDCL solve, and its errors propagate from ``result``.
    Only awaited results are accounted, stored or observed.  A loser that
    was already running cannot be cancelled; it finishes in its worker and
    only its spans are kept, under a ``pool`` span, so a trace shows what
    kept the workers busy.
    """

    exact = True

    def __init__(
        self, request: SweepRequest, max_workers: Optional[int], lookahead: int
    ) -> None:
        self.lookahead = lookahead
        self.encode_calls = 0
        self._workers = max_workers or os.cpu_count() or 1
        self._initargs = (
            replace(request, candidates=(), bounds=None),
            get_tracer().enabled,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[Tuple[int, int, int], Future] = {}
        self._losers: List[Future] = []

    def prefetch(self, probes: Sequence[Probe]) -> None:
        wanted = [probe.key for probe in probes]
        for key in set(self._futures).difference(wanted):
            future = self._futures.pop(key)
            if not future.cancel():
                self._losers.append(future)
        if self._pool is None:
            if len(wanted) < 2:
                return
            from concurrent.futures import ProcessPoolExecutor

            self._span = get_tracer().open("pool", workers=self._workers)
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_init_pool_worker,
                initargs=self._initargs,
            )
        for key in wanted:
            if key not in self._futures:
                self._futures[key] = self._pool.submit(_solve_in_worker, key)

    def result(self, probe: Probe):
        self.encode_calls += 1
        future = self._futures.pop(probe.key, None)
        if future is None:
            return _solve_exact(probe)
        return future.result()  # worker errors propagate

    def close(self) -> None:
        self.prefetch(())  # an empty hint cancels everything outstanding
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            for future in self._losers:
                if future.done() and not future.cancelled() and future.exception() is None:
                    self._span.adopt(future.result().trace)
            get_tracer().close(self._span)


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def _check_uniform(requests: Sequence[SweepRequest]) -> None:
    """One run shares one executor, so its requests differ only in S, and
    each step count is swept once: the family executor sizes a step
    count's encoding from that sweep's hint alone."""

    def context(request: SweepRequest) -> tuple:
        return (
            request.collective, id(request.topology), request.root,
            request.deadline, request.conflict_limit,
            request.stop_at_first_sat, id(request.bounds),
        )

    first = context(requests[0])
    if any(context(request) != first for request in requests[1:]):
        raise DispatchError("the requests of one run must differ only in steps/candidates")
    if len({request.steps for request in requests}) < len(requests):
        raise DispatchError("the requests of one run must have distinct step counts")


def _plan_probes(request: SweepRequest) -> Optional[ProbePlan]:
    """The bounds ledger's verdict on this sweep's candidates (None unseeded).

    Planned *before* any cache lookup, so warm replays make the same
    probe/cut/prune decisions as the cold run that filled the cache.
    """
    if request.bounds is None:
        return None
    return request.bounds.plan(request.steps, request.candidates)


def _cached_result(
    probe: Probe, cache: Optional[AlgorithmCache],
    fingerprints: Dict[Tuple[int, int, int], str],
):
    """Resolve one probe against the cache (None on a miss or no cache).

    The probe's fingerprint is left in ``fingerprints`` for the store that
    follows a miss.
    """
    if cache is None:
        return None
    key = fingerprints[probe.key] = instance_fingerprint(probe.instance)
    return lookup_result(cache, probe.instance, key=key)


def _cut_for(probe: Probe, witness: Optional[Tuple[int, int, int]], cache):
    """Materialize the synthetic UNSAT for a cut candidate (and persist it)."""
    request = probe.request
    result = cut_result(
        request.collective, request.topology, request.steps, probe.rounds,
        probe.chunks, root=request.root, witness=witness, instance=probe.instance,
    )
    if cache is not None:
        store_result(cache, result)
    return result


def _commit_sweep_telemetry(stats: SweepStats) -> None:
    """Publish one finished sweep's candidate counts to the metrics registry.

    Called once per sweep, from the stats the caller reports, so the
    ``repro_bounds_candidates_total`` series equals the :class:`SweepStats`
    totals by construction.
    """
    for action, count in (
        ("probed", stats.candidates_probed),
        ("pruned", stats.probes_pruned),
        ("cut", stats.probes_cut),
    ):
        if count:
            get_metrics().inc(
                "repro_bounds_candidates_total", value=float(count), action=action
            )


class Dispatcher:
    """The one ordered sweep loop, parameterized by an executor factory."""

    def __init__(
        self, name: str, make_executor: Callable[[SweepRequest], Executor]
    ) -> None:
        self.name = name
        self._make_executor = make_executor

    def sweep(self, request: SweepRequest) -> SweepOutcome:
        """Run one request on its own, without a cache."""
        return self.run([request])[0]

    def run(
        self,
        requests: Sequence[SweepRequest],
        cache: Optional[AlgorithmCache] = None,
        stop: Optional[Callable[[SweepOutcome], bool]] = None,
    ) -> List[SweepOutcome]:
        """Sweep the requests in order until ``stop`` accepts an outcome.

        Returns the outcomes of the sweeps that ran — all of them, or the
        prefix ending with the one ``stop`` accepted (Algorithm 1's
        bandwidth-optimality test) or the one the deadline cut.  ``stop``
        is called once per outcome, in order, before the next sweep starts.
        """
        requests = list(requests)
        if not requests:
            return []
        _check_uniform(requests)
        executor = self._make_executor(requests[0])
        tracer = get_tracer()
        probes: Dict[Tuple[int, int, int], Probe] = {}
        replays: Dict[Tuple[int, int, int], object] = {}
        fingerprints: Dict[Tuple[int, int, int], str] = {}

        def probe_at(request: SweepRequest, rounds: int, chunks: int) -> Probe:
            """The run's one probe (hence one instance) per lattice point."""
            key = (request.steps, rounds, chunks)
            probe = probes.get(key)
            if probe is None:
                probe = probes[key] = make_probe(request, rounds, chunks)
            return probe

        def lookup(probe: Probe):
            """The cache's answer for ``probe``, asked at most once per run."""
            if probe.key not in replays:
                replays[probe.key] = _cached_result(probe, cache, fingerprints)
            return replays[probe.key]

        def misses(request: SweepRequest, plan: Optional[ProbePlan]) -> Iterator[Probe]:
            """The probes of ``request`` an executor may be asked for."""
            for index, (rounds, chunks) in enumerate(request.candidates):
                if plan is not None and plan.actions[index] != PROBE:
                    continue
                probe = probe_at(request, rounds, chunks)
                cached = lookup(probe)
                if cached is None:
                    yield probe
                elif cached.is_sat and request.stop_at_first_sat:
                    return

        outcomes: List[SweepOutcome] = []
        try:
            for position, request in enumerate(requests):
                # This step count is now current: plan it against everything
                # the ledger has learned, and plan the lookahead the same way
                # (a hint only — each is planned again when its turn comes,
                # and pruning is monotone, so a hint never misses a probe).
                window = requests[position:position + 1 + executor.lookahead]
                plans = [_plan_probes(ahead) for ahead in window]
                if seconds_left(request.deadline) != 0:  # past it, no probe starts
                    executor.prefetch([
                        probe
                        for ahead, ahead_plan in zip(window, plans)
                        for probe in misses(ahead, ahead_plan)
                    ])
                plan = plans[0]
                outcome = SweepOutcome()
                stats = outcome.stats
                # Set by the first derived formula of this step count that
                # exhausts its budget (the UNKNOWN policy below).
                budget_bound = False
                with tracer.span(
                    "sweep", strategy=self.name, S=request.steps,
                    collective=request.collective,
                ) as sweep_span:
                    for index, (rounds, chunks) in enumerate(request.candidates):
                        action = PROBE if plan is None else plan.actions[index]
                        if action == PRUNE:
                            stats.probes_pruned += 1
                            continue
                        probe = probe_at(request, rounds, chunks)
                        if action == CUT:
                            stats.probes_cut += 1
                            outcome.results.append(
                                _cut_for(probe, plan.witnesses.get(index), cache)
                            )
                            continue
                        result = lookup(probe)
                        if result is None and seconds_left(request.deadline) == 0:
                            outcome.deadline_cut = True  # no probe starts
                            break
                        stats.candidates_probed += 1
                        if result is not None:
                            stats.cache_hits += 1
                            # No executor ran, so the replayed candidate's
                            # probe event is emitted here (zero duration).
                            tracer.instant(
                                "probe",
                                collective=request.collective, C=chunks,
                                S=request.steps, R=rounds,
                                verdict=result.status.value, cache_hit=True,
                                backend=result.backend,
                            )
                        else:
                            # Every awaited result is one solver call, counted
                            # here and in the registry: the executors and the
                            # workers beneath them count nothing.
                            stats.solver_calls += 1
                            if budget_bound:
                                stats.encode_calls += 1
                                result = _solve_exact(probe)
                                count_solver_call(result)
                            else:
                                before = executor.encode_calls
                                result = executor.result(probe)
                                stats.encode_calls += executor.encode_calls - before
                                count_solver_call(result)
                                budget_bound = result.is_unknown and not executor.exact
                                if budget_bound and seconds_left(request.deadline) != 0:
                                    # The UNKNOWN policy (module docstring): a
                                    # derived formula exhausted the budget.  Ask
                                    # the exact one, report its answer with the
                                    # frame's time added, and send the rest of
                                    # this step count straight there.
                                    frame = result
                                    result = _solve_exact(probe)
                                    stats.unknown_retries += 1
                                    stats.encode_calls += 1
                                    stats.solver_calls += 1
                                    count_solver_call(result)
                                    result.encode_time += frame.encode_time
                                    result.solve_time += frame.solve_time
                            if result.trace:
                                sweep_span.adopt(result.trace)
                                result.trace = None
                            if cache is not None:
                                store_result(cache, result, key=fingerprints[probe.key])
                            if result.is_unknown:  # past the deadline, the deadline's
                                outcome.deadline_cut = seconds_left(request.deadline) == 0
                        if request.bounds is not None:
                            request.bounds.observe(result)
                        outcome.results.append(result)
                        if outcome.deadline_cut or (result.is_sat and request.stop_at_first_sat):
                            break
                _commit_sweep_telemetry(outcome.stats)
                outcomes.append(outcome)
                if (stop is not None and stop(outcome)) or outcome.deadline_cut:
                    break
        finally:
            executor.close()
        return outcomes


def make_dispatcher(
    strategy: str = "incremental", *, max_workers: Optional[int] = None
) -> Dispatcher:
    """The sweep loop with the executor ``strategy`` names."""
    if strategy not in STRATEGIES:
        raise DispatchError(
            f"unknown sweep strategy {strategy!r}; available: {list(STRATEGIES)}"
        )
    if max_workers is not None and max_workers < 1:
        raise DispatchError("max_workers must be at least 1")

    def make_executor(request: SweepRequest) -> Executor:
        if strategy in _POOL_LOOKAHEAD and max_workers != 1:
            return PoolExecutor(request, max_workers, _POOL_LOOKAHEAD[strategy])
        if strategy == "incremental":
            return FamilyExecutor(request)
        return InlineExecutor()

    return Dispatcher(strategy, make_executor)
