"""Worker pool and the resolution chain behind every planning job.

Workers pull jobs off the :class:`~repro.service.broker.Broker` and answer
them through :class:`SynthesisResolver`, whose fallback ladder is fixed:

1. **registry / cache** — pinned requests consult the content-addressed
   :class:`~repro.engine.cache.AlgorithmCache`, routed requests the
   registry's memoized routing table; a hit (for a pinned request, a plan
   or an UNSAT verdict, which answers as an error) is answered without any
   solver work.
2. **synthesis** — pinned requests run one engine solve
   (:func:`repro.core.synthesizer.synthesize`); routed requests run a
   Pareto sweep through the engine's one sweep loop with its default
   ``incremental`` executor, in the worker thread (no process is forked),
   seeded with baseline upper bounds so dominated candidates are pruned
   before any solver work, then score the frontier with the alpha-beta
   simulator into a fresh routing table.  The sweep reads and writes the
   cache, so rebuilding a table that left memory replays its frontier
   with no solver call (probes that ended UNKNOWN are never cached and
   are solved again).
3. **baseline** — when the solver comes back UNKNOWN, or the sweep found
   no algorithm before the deadline, the resolver degrades gracefully to a
   hand-written baseline (ring Allgather/Allreduce/Reducescatter, BFS-tree
   Broadcast/Reduce, or the NCCL/RCCL schedule where no ring fits), clearly
   labelled ``source="baseline"``.  Serving a correct-but-suboptimal
   schedule beats serving an error.

The job's deadline, less :data:`ANSWER_RESERVE_S`, bounds every solve on
this path once.  Routed requests that differ only in size share one
table, and :meth:`~repro.service.registry.PlanRegistry.table` runs one
build of it at a time: the request that ran it answers ``synthesized``,
and every request that waited for it (until its own deadline less half
the reserve) answers ``registry`` from the same table.  A table from a
sweep the deadline cut answers those requests but is not memoized: its
decided probes are cached, so the next build resumes the lattice where
this one stopped.

:class:`PlanningService` bundles broker + pool + registry into the
one-object facade the HTTP server, the CLI, the quickstart example and the
benchmarks all share.  The resolver is injectable, which is also how the
contention tests count solves.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from ..core.synthesizer import seconds_left
from ..telemetry import get_metrics
from .api import (
    FaultRequest,
    FaultResponse,
    PlanRequest,
    PlanResponse,
    ServiceError,
)
from .broker import Broker, Job, Ticket
from .faults import Fabric, FaultBoard, apply_fault_request
from .registry import UNSAT, PlanRegistry, build_routing_table

#: Resolver signature: (request, seconds left or None for no limit) -> PlanResponse.
Resolver = Callable[[PlanRequest, Optional[float]], PlanResponse]

#: Seconds before the job's deadline at which the engine stops and the
#: resolver answers.  An encode is not interrupted (a DGX-1 family encode:
#: up to 0.1 s at S = 4); a table from 1-2 points takes ≈ 1 ms, a baseline
#: 2-8 ms.  Cold routed DGX-1 answers came 12-39 ms past the engine's deadline.
ANSWER_RESERVE_S = 0.25


class WorkerError(ServiceError):
    """Raised for invalid worker-pool configurations."""


# ----------------------------------------------------------------------
# Baseline fallback
# ----------------------------------------------------------------------
def baseline_algorithm(collective: str, topology, *, root: int = 0):
    """The first hand-written algorithm that builds and verifies, or None.

    The choice is :func:`~repro.baselines.baseline_suite`'s: ring or tree
    first, then the NCCL/RCCL tables (DGX-1 has no Hamiltonian ring of
    uniform links, but its NCCL rings verify).  Gather, Scatter, Alltoall
    and fabrics no builder fits have no fallback.
    """
    from ..baselines import baseline_suite

    suite = baseline_suite(collective, topology, root=root)
    return suite[0].algorithm if suite else None


def _baseline_response(
    request: PlanRequest, key: str, *, reason: str, started: float, topology=None
):
    from ..interchange.plan import plan_from_algorithm

    if topology is None:
        topology = request.resolve_topology()
    algorithm = baseline_algorithm(request.collective, topology, root=request.root)
    if algorithm is None:
        return PlanResponse(
            status="timeout",
            request_key=key,
            solve_time_s=time.monotonic() - started,
            error=f"{reason}; no baseline algorithm for {request.collective} "
            f"on {topology.name}",
        )
    plan = plan_from_algorithm(
        algorithm,
        provenance={"backend": "baseline", "fallback_reason": reason},
    )
    return PlanResponse(
        status="ok",
        request_key=key,
        plan=plan.to_json(),
        source="baseline",
        solve_time_s=time.monotonic() - started,
    )


# ----------------------------------------------------------------------
# The default resolver
# ----------------------------------------------------------------------
class SynthesisResolver:
    """The cache -> synthesis -> baseline ladder (see module docstring)."""

    def __init__(
        self,
        registry: PlanRegistry,
        *,
        fault_board: Optional[FaultBoard] = None,
    ) -> None:
        self.registry = registry
        # Every resolution targets the fault board's view of the fabric:
        # with active faults the degraded topology flows through cache
        # lookups, routing keys, synthesis and baselines alike, so no
        # answer can schedule traffic over a link declared dead.  Without
        # a board the fabric is always healthy: an empty board says that.
        self.fault_board = fault_board if fault_board is not None else FaultBoard()

    # ------------------------------------------------------------------
    def __call__(
        self, request: PlanRequest, remaining_s: Optional[float] = None
    ) -> PlanResponse:
        # The engine's deadline: the job's, less the answer reserve.
        deadline = (
            None if remaining_s is None
            else time.monotonic() + remaining_s - ANSWER_RESERVE_S
        )
        fabric = self.fault_board.fabric(request)
        if fabric.degraded:
            get_metrics().inc("repro_resolver_replans_total")
        if request.mode == "pinned":
            response = self._resolve_pinned(request, deadline, fabric)
        else:
            response = self._resolve_routed(request, deadline, fabric)
        self._record(response)
        return response

    def _record(self, response: PlanResponse) -> None:
        """One latency observation per resolution.

        Labelled with the resolver-ladder rung that produced the answer
        (``cache`` / ``registry`` / ``synthesized`` / ``baseline``) or the
        failure status; this histogram is behind ``/v1/stats``'s
        p50/p95/p99.
        """
        rung = response.source if response.ok else response.status
        get_metrics().observe(
            "repro_resolver_latency_seconds", response.solve_time_s, rung=rung
        )

    def _rung(self, rung: str) -> None:
        """Record which ladder rung produced the answer."""
        get_metrics().inc("repro_resolver_rung_total", rung=rung)

    # ------------------------------------------------------------------
    def _resolve_pinned(
        self, request: PlanRequest, deadline: Optional[float], fabric: Fabric
    ) -> PlanResponse:
        from ..core import make_instance, synthesize
        from ..interchange.plan import plan_from_result

        key = request.request_key()
        started = time.monotonic()
        topology = fabric.topology

        # On a healthy fabric the request key *is* the answer's cache key;
        # a degraded one addresses the entry built for the degraded fabric.
        plan = self.registry.lookup_pinned_json(
            request, topology=topology, key=None if fabric.degraded else key
        )
        if plan is UNSAT:
            return self._unsatisfiable(request, key, started)
        if plan is not None:
            self._rung("cache")
            return PlanResponse(
                status="ok",
                request_key=key,
                plan=plan,
                source="cache",
                solve_time_s=time.monotonic() - started,
            )

        try:
            instance = make_instance(
                request.collective,
                topology,
                request.chunks,
                request.steps,
                request.rounds,
                root=request.root,
            )
        except Exception as exc:
            self._rung("error")
            return PlanResponse(
                status="error", request_key=key, error=str(exc),
                solve_time_s=time.monotonic() - started,
            )

        result = synthesize(
            instance, time_limit=seconds_left(deadline), cache=self.registry.cache
        )
        if result.is_sat:
            self._rung("cache" if result.cache_hit else "synthesized")
            return PlanResponse(
                status="ok",
                request_key=key,
                plan=plan_from_result(result).to_json(),
                source="cache" if result.cache_hit else "synthesized",
                solve_time_s=time.monotonic() - started,
            )
        if result.is_unsat:
            return self._unsatisfiable(request, key, started)
        # UNKNOWN: the solver hit the deadline; degrade to a baseline.
        self._rung("baseline")
        return _baseline_response(
            request, key, reason="solver deadline exceeded", started=started,
            topology=topology,
        )

    def _unsatisfiable(self, request: PlanRequest, key: str, started: float) -> PlanResponse:
        self._rung("error")
        return PlanResponse(
            status="error",
            request_key=key,
            error=f"{request.describe()} is unsatisfiable",
            solve_time_s=time.monotonic() - started,
        )

    # ------------------------------------------------------------------
    def _resolve_routed(
        self, request: PlanRequest, deadline: Optional[float], fabric: Fabric
    ) -> PlanResponse:
        key = request.request_key()
        started = time.monotonic()
        topology = fabric.topology
        # The table's key depends on the fabric and on these fields only.
        table_key = fabric.key(
            (request.collective, request.root, request.synchrony),
            lambda: self.registry.table_key(request, topology=topology),
        )

        def build():
            # Synthesize (or replay) the frontier and score it with the
            # simulator.  A cut sweep's table answers the requests that
            # asked for it but is not kept (module docstring).
            from ..core import pareto_synthesize

            frontier = pareto_synthesize(
                request.collective, topology, k=request.synchrony,
                root=request.root, time_limit=seconds_left(deadline),
                cache=self.registry.cache,
            )
            algorithms = frontier.algorithms()
            if not algorithms:
                return None, False
            return build_routing_table(
                request.collective, topology, algorithms,
                root=request.root, synchrony=request.synchrony,
            ), not frontier.deadline_cut

        # Routed requests that differ only in size share this table: one
        # of them builds it, and the others wait for that build until
        # their own deadline less half the answer reserve.
        try:
            table, built_here = self.registry.table(
                table_key, topology, build,
                wait_s=None if deadline is None
                else seconds_left(deadline + ANSWER_RESERVE_S / 2),
            )
        except Exception as exc:
            self._rung("error")
            return PlanResponse(
                status="error", request_key=key, error=str(exc),
                solve_time_s=time.monotonic() - started,
            )
        entry = None if table is None else table.route(float(request.size_bytes))
        if entry is None:
            self._rung("baseline")
            return _baseline_response(
                request, key, reason="no routing table before the deadline",
                started=started, topology=topology,
            )
        source = "synthesized" if built_here else "registry"
        self._rung(source)
        return PlanResponse(
            status="ok",
            request_key=key,
            plan=table.plan_json(entry),
            source=source,
            solve_time_s=time.monotonic() - started,
            route=_route_payload(entry, table),
        )


def _route_payload(entry, table) -> Dict[str, object]:
    return {
        "min_bytes": entry.min_bytes,
        "max_bytes": entry.max_bytes,
        "plan": entry.plan_name,
        "signature": list(entry.signature),
        "protocol": table.protocol,
        "table_built_at": table.built_at,
    }


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Threads draining the broker through a resolver.

    Planning work is dominated by the pure-Python SAT search, which
    releases the GIL poorly — but the pool still wins: cache and registry
    hits are I/O-bound, coalesced bursts collapse to one solve, and the
    pool shape (``num_workers``) is the knob every future scaling PR
    (multi-process workers, remote hosts) will re-implement behind the
    same broker contract.
    """

    def __init__(
        self,
        broker: Broker,
        resolver: Resolver,
        *,
        num_workers: int = 2,
    ) -> None:
        if num_workers < 1:
            raise WorkerError("num_workers must be at least 1")
        self.broker = broker
        self.resolver = resolver
        self.num_workers = num_workers
        self._threads: List[threading.Thread] = []
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the workers; a stopped pool (its broker closed) does not."""
        if self._stopped:
            raise WorkerError("pool was stopped; build a new service")
        if self._threads:
            raise WorkerError("pool already started")
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._run, name=f"planner-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, *, timeout: float = 5.0) -> None:
        """Close the broker and wait up to ``timeout`` seconds in all for the
        workers; one still mid-solve after that is a daemon and is left."""
        self._stopped = True
        self.broker.close()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads.clear()

    def _run(self) -> None:
        # Until the broker is closed and drained: a job queued before the
        # close is still answered, so no ticket hangs.
        while (job := self.broker.next_job()) is not None:
            self._serve(job)

    def _serve(self, job: Job) -> None:
        try:
            response = self.resolver(job.request, job.remaining_s())
        except (KeyboardInterrupt, SystemExit):
            # Shutdown signals must propagate — but only after the job's
            # waiters get a structured answer instead of a hung ticket.
            self.broker.fail(job, ServiceError("worker interrupted during shutdown"))
            raise
        except Exception as exc:  # a resolver bug must not kill the pool
            self.broker.fail(job, exc)
        else:
            self.broker.complete(job, response)


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class PlanningService:
    """Broker + worker pool + registry in one start/stoppable object."""

    def __init__(
        self,
        registry: Optional[PlanRegistry] = None,
        *,
        num_workers: int = 2,
        resolver: Optional[Resolver] = None,
        fault_board: Optional[FaultBoard] = None,
    ) -> None:
        self.registry = registry if registry is not None else PlanRegistry()
        self.fault_board = fault_board if fault_board is not None else FaultBoard()
        self.resolver = (
            resolver
            if resolver is not None
            else SynthesisResolver(self.registry, fault_board=self.fault_board)
        )
        # A job is keyed by (request key, fabric name), as the registry's
        # memos are: a request never joins a job planning for another
        # fabric of its structure, or for the fabric before a fault.
        self.broker = Broker(key_fn=self.fault_board.job_key)
        self.pool = WorkerPool(self.broker, self.resolver, num_workers=num_workers)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "PlanningService":
        """Start the pool; after :meth:`stop` this raises :class:`WorkerError`."""
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def stop(self, *, timeout: float = 5.0) -> None:
        """Stop the pool for good, waiting at most ``timeout`` s for its workers."""
        if self._started:
            self.pool.stop(timeout=timeout)
            self._started = False

    def __enter__(self) -> "PlanningService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(self, request: PlanRequest) -> Ticket:
        if not self._started:
            raise WorkerError("service is not started (use `with PlanningService(...)`) ")
        return self.broker.submit(request)

    def request(self, request: PlanRequest) -> PlanResponse:
        """Submit and wait until the answer or the request's deadline
        (:data:`~repro.service.api.DEFAULT_DEADLINE_S` when it names none)."""
        return self.submit(request).wait()

    def fault(self, request: FaultRequest) -> FaultResponse:
        """Register, clear or inspect faults; deletes nothing.

        The next plan request resolves against the board's new view of the
        fabric, and every registry key hashes that fabric: a degraded one
        reaches only what was built for it, and after ``clear`` the healthy
        plans are served again without a solve.
        """
        return apply_fault_request(self.fault_board, request)

    def stats(self) -> Dict[str, object]:
        """The ``/v1/stats`` view.

        Every count is read from the process metrics registry, whose
        ``since`` dates the window they cover (a service stop and start is
        not a reset); the rest is live state: queue depth, jobs in flight,
        memoized tables, cache entries and active faults.
        """
        metrics = get_metrics()

        def counts(name: str, label: str) -> Dict[str, int]:
            return {k: int(v) for k, v in metrics.breakdown(name, label).items()}

        requests = counts("repro_broker_requests_total", "outcome")
        jobs = counts("repro_broker_jobs_total", "outcome")
        lookups = counts("repro_cache_lookups_total", "outcome")
        bounds = counts("repro_bounds_candidates_total", "action")
        coalesced = requests.get("coalesced", 0)
        submitted = requests.get("enqueued", 0) + coalesced
        hits, misses = lookups.get("hit", 0), lookups.get("miss", 0)
        return {
            "since": metrics.since,
            "broker": {
                "submitted": submitted,
                "coalesced": coalesced,
                "coalescing_ratio": coalesced / submitted if submitted else 0.0,
                "completed": jobs.get("completed", 0),
                "failed": jobs.get("failed", 0),
                "resolver_crashes": jobs.get("crashed", 0),
                "dropped_jobs": jobs.get("dropped", 0),
                "expired": int(metrics.total("repro_broker_expired_total")),
                **self.broker.gauges(),
            },
            "resolver": {
                "rungs": counts("repro_resolver_rung_total", "rung"),
                # Lookups the registry answered from memory.
                "warm_hits": int(metrics.total("repro_registry_memo_hits_total")),
                # Resolutions that targeted a degraded fabric.
                "replans": int(metrics.total("repro_resolver_replans_total")),
            },
            "registry": {"tables": self.registry.table_count()},
            "workers": self.pool.num_workers,
            "faults": self.fault_board.snapshot(),
            "engine": {
                "bounds": {a: bounds.get(a, 0) for a in ("probed", "pruned", "cut")},
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                    "entries": len(self.registry.cache),
                },
                "latency": {
                    "resolver_seconds": metrics.quantiles(
                        "repro_resolver_latency_seconds"
                    ),
                    "solve_seconds": metrics.quantiles("repro_solve_seconds"),
                },
            },
        }
