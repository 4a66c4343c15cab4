"""Plan registry: pinned-plan lookups plus per-(collective, topology)
buffer-size routing tables.

The algorithm cache is the one persistent store; the registry is its
serving-side face and keeps two memos over it:

* **pinned plans** — read from the engine's content-addressed
  :class:`~repro.engine.cache.AlgorithmCache` (one JSON file per solved
  candidate, safe under concurrent writers) and held in wire form;
* **routing tables** — one per ``(collective, topology structure and
  costs, root, synchrony)`` :func:`routing_key`, mapping *buffer-size
  ranges* to the frontier algorithm the alpha-beta simulator predicts is
  fastest in that range.  This turns the evaluation harness's offline
  "which algorithm wins at which size" analysis (paper Figures 4-6) into
  an online routing decision answered from a dict lookup.

A routing table is a view over the cache, never a file: every SAT and
UNSAT verdict of the sweep behind it is a cache entry, so a table that is
not in memory (after a restart, an eviction, or under a new fault state)
is rebuilt by a ``pareto_synthesize`` that replays the frontier without
solving, plus :func:`build_routing_table`.  Tables embed their frontier
algorithms as :class:`~repro.interchange.plan.AlgorithmPlan` bundles, so a
routed answer is served without touching the cache; the plans came from
verified algorithms in this process, and the cache's own read path is the
one trust boundary.

Both memos, and the table builds in flight, are keyed by ``(content key,
topology name)``, as the broker's jobs are: the content key is
structural, and the name tells apart fabrics of one structure (``ring:3``
and ``fc:3``) and a fabric from its degradations.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.algorithm import Algorithm
from ..engine.cache import (
    FORMULA,
    AlgorithmCache,
    content_hash,
    default_cache,
    fingerprint,
    topology_cost_payload,
    topology_fingerprint_payload,
)
from ..interchange.plan import AlgorithmPlan, plan_from_algorithm
from ..telemetry import get_metrics
from ..topology import Topology
from .api import PlanRequest, ServiceError

#: Probe grid of routing tables: 1 KiB .. 256 MiB in x4 steps.
ROUTE_SIZES: Tuple[int, ...] = tuple(1024 * 4 ** i for i in range(10))

#: Protocol whose cost model scores routing candidates.
ROUTE_PROTOCOL = "single_kernel_push"

#: Pinned plans a registry keeps in wire form in memory (least recently
#: used dropped first); a constant, sized for a service's hot set.
PINNED_MEMO_ENTRIES = 128

#: What :meth:`PlanRegistry.lookup_pinned_json` answers for a candidate the
#: cache holds as unsatisfiable (memoized like a plan).
UNSAT = "unsat"

#: Routing tables a registry keeps in memory (least recently used dropped
#: first; a dropped table is rebuilt from the cache on its next request).
TABLE_MEMO_ENTRIES = 32


class RegistryError(ServiceError):
    """Raised for malformed routing tables or registry misuse."""


class _Build:
    """One table build in flight: set ``done`` once ``table`` is final."""

    __slots__ = ("done", "table")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.table: Optional[RoutingTable] = None


# ----------------------------------------------------------------------
# Routing tables
# ----------------------------------------------------------------------
@dataclass
class RouteEntry:
    """One contiguous buffer-size range and its winning algorithm."""

    min_bytes: float
    max_bytes: Optional[float]      # None = open-ended (largest range)
    plan_name: str                  # key into RoutingTable.plans
    signature: Tuple[int, int, int]  # (C, S, R) of the winner

    def covers(self, size_bytes: float) -> bool:
        upper_ok = self.max_bytes is None or size_bytes < self.max_bytes
        return size_bytes >= self.min_bytes and upper_ok


@dataclass
class RoutingTable:
    """Simulator-scored frontier of one (collective, topology) pair."""

    collective: str
    topology_name: str
    root: int
    synchrony: int
    protocol: str
    probe_sizes: List[int] = field(default_factory=list)
    probe_times: Dict[str, List[float]] = field(default_factory=dict)
    entries: List[RouteEntry] = field(default_factory=list)
    plans: Dict[str, dict] = field(default_factory=dict)   # name -> plan JSON
    built_at: float = 0.0
    build_time_s: float = 0.0

    def route(self, size_bytes: float) -> Optional[RouteEntry]:
        """The entry covering ``size_bytes`` (tables cover [0, inf))."""
        for entry in self.entries:
            if entry.covers(size_bytes):
                return entry
        return None

    def plan_json(self, entry: RouteEntry) -> dict:
        """The entry's plan in wire form, as embedded (shared: do not mutate)."""
        payload = self.plans.get(entry.plan_name)
        if payload is None:
            raise RegistryError(
                f"routing table references unknown plan {entry.plan_name!r}"
            )
        return payload


def build_routing_table(
    collective: str,
    topology: Topology,
    algorithms: Sequence[Algorithm],
    *,
    root: int = 0,
    synchrony: int = 0,
) -> RoutingTable:
    """Score candidate algorithms with the simulator and derive size ranges.

    Each algorithm is lowered once and simulated at every probe size; the
    per-size winner is the minimum simulated wall-clock time.  Runs of
    consecutive probe sizes with the same winner merge into one
    :class:`RouteEntry`; the boundary between two ranges is the geometric
    midpoint of the adjacent probe sizes (sizes are sampled on a geometric
    grid, so that is the unbiased split).
    """
    from ..runtime import Simulator, lower

    if not algorithms:
        raise RegistryError("cannot build a routing table from zero algorithms")
    sizes = ROUTE_SIZES

    started = time.monotonic()
    simulator = Simulator(topology)
    programs = [(algorithm, lower(algorithm, protocol=ROUTE_PROTOCOL)) for algorithm in algorithms]

    names: List[str] = []
    times: Dict[str, List[float]] = {}
    plans: Dict[str, dict] = {}
    for algorithm, _ in programs:
        if algorithm.name in plans:
            raise RegistryError(f"duplicate algorithm name {algorithm.name!r}")
        names.append(algorithm.name)
        times[algorithm.name] = []
        plans[algorithm.name] = plan_from_algorithm(algorithm).to_json()

    winners: List[str] = []
    for size in sizes:
        best_name, best_time = None, math.inf
        for algorithm, program in programs:
            elapsed = simulator.simulate(program, size).total_time_s
            times[algorithm.name].append(elapsed)
            if elapsed < best_time:
                best_name, best_time = algorithm.name, elapsed
        winners.append(best_name)

    by_name = {algorithm.name: algorithm for algorithm, _ in programs}
    entries: List[RouteEntry] = []
    lower_bound = 0.0
    for index, winner in enumerate(winners):
        last = index == len(winners) - 1
        if not last and winners[index + 1] == winner:
            continue
        upper = None if last else math.sqrt(sizes[index] * sizes[index + 1])
        entries.append(
            RouteEntry(
                min_bytes=lower_bound,
                max_bytes=upper,
                plan_name=winner,
                signature=by_name[winner].signature(),
            )
        )
        lower_bound = upper

    return RoutingTable(
        collective=collective,
        topology_name=topology.name,
        root=root,
        synchrony=synchrony,
        protocol=ROUTE_PROTOCOL,
        probe_sizes=list(sizes),
        probe_times=times,
        entries=entries,
        plans=plans,
        built_at=time.time(),
        build_time_s=time.monotonic() - started,
    )


def routing_key(
    collective: str,
    topology: Topology,
    *,
    root: int = 0,
    synchrony: int = 0,
) -> str:
    """Content hash identifying one routing table (size-independent).

    The key covers both the *structural* topology payload (which links
    exist — decides satisfiability) and the *cost* payload (alpha/beta
    and per-link overrides — decides which frontier algorithm wins each
    size range).  Changing cost parameters therefore addresses a fresh
    table instead of serving routes scored under the old cost model.
    :data:`~repro.engine.cache.FORMULA` is a constant of the payload.
    """
    return content_hash({
        "version": 1,
        "collective": collective,
        "topology": topology_fingerprint_payload(topology),
        "topology_cost": topology_cost_payload(topology),
        "root": root,
        "synchrony": synchrony,
        **FORMULA,
    })


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class PlanRegistry:
    """Pinned plans and routing tables, both memoized in bounded LRU order.

    Pinned plans are held in wire form and UNSAT verdicts as :data:`UNSAT`
    (at most :data:`PINNED_MEMO_ENTRIES` of both), each signed with its
    cache entry's ``(mtime_ns, size, inode)`` and
    re-validated by one ``stat`` per lookup: an entry file that was
    replaced, rewritten, touched or removed goes through the full
    read-and-verify path again, so edited bytes are never served from
    memory.  Routing tables (at most :data:`TABLE_MEMO_ENTRIES`) live in
    memory only, keyed by :func:`routing_key` and the topology's name, as
    pinned plans are (a table's plans embed their fabric); a lookup is a
    dict probe, and :meth:`table` owns the rest of a table's life: one
    build per key at a time, whose result every concurrent caller of that
    key takes.  On a warm cache a build replays the frontier with no solver
    call.  :meth:`lookup_pinned_json` hands out the wire form the service
    sends; :meth:`lookup_pinned` and :meth:`route` decode it into an
    :class:`AlgorithmPlan`.  A lookup answered from either memo counts as
    ``repro_registry_memo_hits_total{memo="pinned"|"table"}``.

    ``routes_dir`` is accepted and ignored: routing tables live only in memory.
    """

    def __init__(
        self,
        cache: Optional[AlgorithmCache] = None,
        routes_dir=None,
    ) -> None:
        self.cache = cache if cache is not None else default_cache()
        self._lock = threading.Lock()
        # Both in least-recently-used order: built tables by (routing key,
        # topology name), and pinned plans in wire form by (cache key,
        # topology name), signed with the entry file's (mtime_ns, size, inode).
        self._tables: Dict[Tuple[str, str], RoutingTable] = {}
        self._pinned: Dict[Tuple[str, str], Tuple[Tuple[int, int, int], dict]] = {}
        # Table builds in flight, under the memo key they will fill.
        self._building: Dict[Tuple[str, str], _Build] = {}

    # ------------------------------------------------------------------
    # Pinned plans (delegated to the algorithm cache)
    # ------------------------------------------------------------------
    def lookup_pinned(self, request: PlanRequest) -> Optional[AlgorithmPlan]:
        """Cached plan for a pinned request, or None (decoded per call)."""
        payload = self.lookup_pinned_json(request)
        if payload is None or payload is UNSAT:
            return None
        return AlgorithmPlan.from_json(payload, verify=False)

    def lookup_pinned_json(
        self,
        request: PlanRequest,
        *,
        topology: Optional[Topology] = None,
        key: Optional[str] = None,
    ) -> Union[dict, str, None]:
        """Wire-form cached plan for a pinned request, :data:`UNSAT` for a
        candidate the cache holds as unsatisfiable, or None.

        ``topology`` overrides the request's spec-derived topology — the
        resolver passes the *degraded* topology when faults are active, so
        lookups address plans built for the fabric as it currently is.
        ``key`` is the candidate's cache key when the caller already has it
        (on a healthy fabric it is the request key).

        The answer is shared with later callers (do not mutate it) for as
        long as the entry file keeps its signature.  Only what went through
        the full read (a plan also through decode and ``verify()``) is ever
        held, and only under the memo key ``(cache key, topology.name)`` it was
        verified for.  The cache key is structural, so fabrics of equal
        structure share it (``ring:3`` and ``fc:3``, a fabric and its
        cost-only degradation), but the plan embeds the whole topology; the
        name tells them apart, since a spec fixes a fabric's costs and a
        degraded fabric is named after its fault set.
        """
        if topology is None:
            topology = request.resolve_topology()
        if key is None:
            key = fingerprint(
                request.collective,
                topology,
                request.chunks,
                request.steps,
                request.rounds,
                root=request.root,
            )
        memo_key = (key, topology.name)
        signature = self.cache.entry_signature(key)
        with self._lock:
            held = self._pinned.pop(memo_key, None)
            if held is not None and held[0] == signature:
                self._pinned[memo_key] = held  # back in, as the most recently used
            else:
                held = None
        if held is not None:
            get_metrics().inc("repro_registry_memo_hits_total", memo="pinned")
            self.cache.count_hit()
            return held[1]
        if signature is None:
            # No entry file, so nothing to read: a cold request's one cache
            # lookup is the solve's, which also stores what it finds.
            return None

        found = self.cache.lookup_decoded(key, topology)
        if found is None:
            return None
        algorithm = found[1]
        payload = UNSAT if algorithm is None else plan_from_algorithm(
            algorithm, provenance={"backend": "cache", "cache_hit": True}
        ).to_json()
        # Signed after the read: the hit itself refreshed the file's mtime.
        signature = self.cache.entry_signature(key)
        if signature is not None:
            with self._lock:
                if len(self._pinned) >= PINNED_MEMO_ENTRIES:
                    del self._pinned[next(iter(self._pinned))]
                self._pinned[memo_key] = (signature, payload)
        return payload

    # ------------------------------------------------------------------
    # Routing tables
    # ------------------------------------------------------------------
    def table_key(
        self, request: PlanRequest, *, topology: Optional[Topology] = None
    ) -> str:
        """The :func:`routing_key` of the table a routed request reads."""
        if topology is None:
            topology = request.resolve_topology()
        return routing_key(
            request.collective,
            topology,
            root=request.root,
            synchrony=request.synchrony,
        )

    def route(
        self, request: PlanRequest
    ) -> Optional[Tuple[AlgorithmPlan, RouteEntry, RoutingTable]]:
        """Answer a routed request from a memoized table, or None (the plan
        decoded per call)."""
        topology = request.resolve_topology()
        memo_key = (self.table_key(request, topology=topology), topology.name)
        with self._lock:
            table = self._memo_get(memo_key)
        if table is None:
            return None
        get_metrics().inc("repro_registry_memo_hits_total", memo="table")
        entry = table.route(float(request.size_bytes))
        if entry is None:
            return None
        return AlgorithmPlan.from_json(table.plan_json(entry), verify=False), entry, table

    def table(
        self,
        key: str,
        topology: Topology,
        build: Callable[[], Tuple[Optional[RoutingTable], bool]],
        *,
        wait_s: Optional[float],
    ) -> Tuple[Optional[RoutingTable], bool]:
        """The table under ``(key, topology.name)``, and whether this call
        built it.

        A memoized table answers at once.  When a build of the same table
        is in flight, this call waits for it (at most ``wait_s`` seconds;
        None waits for good) and takes what it made, a table from a cut
        sweep included, or None if it made none or raised.  Otherwise this
        call runs ``build() -> (table or None, keep)``, hands the result to
        every waiter and memoizes it, as the most recently used, when
        ``keep`` is true.  The in-flight entry leaves with the build,
        whether the build returned or raised.
        """
        memo_key = (key, topology.name)
        with self._lock:
            table = self._memo_get(memo_key)
            pending = None if table is not None else self._building.get(memo_key)
            built_here = table is None and pending is None
            if built_here:
                pending = self._building[memo_key] = _Build()
        if table is not None:
            get_metrics().inc("repro_registry_memo_hits_total", memo="table")
            return table, False
        if not built_here:
            pending.done.wait(wait_s)
            return pending.table, False
        keep = False
        try:
            table, keep = build()
        finally:
            with self._lock:
                del self._building[memo_key]
                if table is not None and keep:
                    if len(self._tables) >= TABLE_MEMO_ENTRIES:
                        del self._tables[next(iter(self._tables))]
                    self._tables[memo_key] = table
                pending.table = table
            pending.done.set()
        return table, True

    def _memo_get(self, memo_key: Tuple[str, str]) -> Optional[RoutingTable]:
        """Under the lock: the memoized table, back in as the most recently used."""
        table = self._tables.pop(memo_key, None)
        if table is not None:
            self._tables[memo_key] = table
        return table

    def table_count(self) -> int:
        """Routing tables held in memory."""
        with self._lock:
            return len(self._tables)


def default_registry() -> PlanRegistry:
    """Registry over the process-default cache."""
    return PlanRegistry(cache=default_cache())
