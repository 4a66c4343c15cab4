"""Plan registry: pinned-plan lookups plus per-(collective, topology)
buffer-size routing tables.

The registry is the serving-side face of the persistence layer.  It layers
two stores:

* **pinned plans** — delegated to the engine's content-addressed
  :class:`~repro.engine.cache.AlgorithmCache` (one JSON file per solved
  candidate, safe under concurrent writers);
* **routing tables** — one JSON document per ``(collective, topology
  structure, root, synchrony)`` tuple mapping *buffer-size ranges* to the
  frontier algorithm the alpha-beta simulator predicts is fastest in that
  range.  This turns the evaluation harness's offline "which algorithm
  wins at which size" analysis (paper Figures 4-6) into an online routing
  decision answered from a dict lookup.

Tables embed their frontier algorithms as
:class:`~repro.interchange.plan.AlgorithmPlan` bundles, so a routed answer
is served without touching the algorithm cache, and every plan crossing
back in from disk is re-verified against the collective spec (the
interchange trust boundary applies to the registry's own files too —
a hand-edited table cannot inject an invalid schedule).
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algorithm import Algorithm
from ..engine.cache import (
    FORMULA,
    AlgorithmCache,
    atomic_write,
    default_cache,
    file_signature,
    fingerprint,
    topology_cost_payload,
    topology_fingerprint_payload,
)
from ..interchange.plan import AlgorithmPlan, plan_from_algorithm
from ..topology import Topology
from .api import PlanRequest, ServiceError

ROUTES_FORMAT = "repro-sccl/routes"
ROUTES_VERSION = 1

#: Default probe grid for routing tables: 1 KiB .. 256 MiB in x4 steps.
DEFAULT_ROUTE_SIZES: Tuple[int, ...] = tuple(1024 * 4 ** i for i in range(10))

#: Protocol whose cost model scores routing candidates.
DEFAULT_ROUTE_PROTOCOL = "single_kernel_push"

#: Pinned plans a registry keeps in wire form in memory (least recently
#: used dropped first); a constant, sized for a service's hot set.
PINNED_MEMO_ENTRIES = 128


class RegistryError(ServiceError):
    """Raised for malformed routing tables or registry misuse."""


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

    def to_json(self) -> dict:
        return {
            "min_bytes": self.min_bytes,
            "max_bytes": self.max_bytes,
            "plan": self.plan_name,
            "signature": list(self.signature),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RouteEntry":
        return cls(
            min_bytes=float(data["min_bytes"]),
            max_bytes=None if data.get("max_bytes") is None else float(data["max_bytes"]),
            plan_name=str(data["plan"]),
            signature=tuple(int(v) for v in data["signature"]),
        )


@dataclass
class RoutingTable:
    """Simulator-scored frontier of one (collective, topology) pair."""

    collective: str
    topology_name: str
    fingerprint: str                 # structural topology fingerprint
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

    def plan_for(self, entry: RouteEntry) -> AlgorithmPlan:
        """The entry's plan, decoded and re-verified against its spec."""
        return AlgorithmPlan.from_json(self.plan_json(entry))

    def to_json(self) -> dict:
        return {
            "format": ROUTES_FORMAT,
            "version": ROUTES_VERSION,
            "collective": self.collective,
            "topology": self.topology_name,
            "topology_fingerprint": self.fingerprint,
            "root": self.root,
            "synchrony": self.synchrony,
            "protocol": self.protocol,
            "probe_sizes": list(self.probe_sizes),
            "probe_times": {k: list(v) for k, v in self.probe_times.items()},
            "entries": [entry.to_json() for entry in self.entries],
            "plans": dict(self.plans),
            "built_at": self.built_at,
            "build_time_s": self.build_time_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RoutingTable":
        """Decode a table and check it (:meth:`verify`): the trust boundary."""
        if data.get("format") != ROUTES_FORMAT:
            raise RegistryError(
                f"not a {ROUTES_FORMAT} document (format={data.get('format')!r})"
            )
        if data.get("version") != ROUTES_VERSION:
            raise RegistryError(f"unsupported routes version {data.get('version')!r}")
        try:
            table = cls(
                collective=str(data["collective"]),
                topology_name=str(data.get("topology", "?")),
                fingerprint=str(data["topology_fingerprint"]),
                root=int(data.get("root", 0)),
                synchrony=int(data.get("synchrony", 0)),
                protocol=str(data.get("protocol", DEFAULT_ROUTE_PROTOCOL)),
                probe_sizes=[int(v) for v in data.get("probe_sizes", [])],
                probe_times={
                    str(k): [float(x) for x in v]
                    for k, v in data.get("probe_times", {}).items()
                },
                entries=[RouteEntry.from_json(e) for e in data.get("entries", [])],
                plans=dict(data.get("plans", {})),
                built_at=float(data.get("built_at", 0.0)),
                build_time_s=float(data.get("build_time_s", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed routing table: {exc}") from exc
        table.verify()
        return table

    def verify(self) -> None:
        """Trust boundary for tables loaded from disk.

        Every referenced plan must exist, decode, re-verify against its
        collective spec, and carry the table's topology fingerprint; the
        entries must tile [0, inf) without gaps or overlaps.
        """
        for entry in self.entries:
            plan = self.plan_for(entry)
            if plan.fingerprint != self.fingerprint:
                raise RegistryError(
                    f"plan {entry.plan_name!r} was built for a different topology "
                    f"than its routing table"
                )
        expected_min = 0.0
        for index, entry in enumerate(self.entries):
            if entry.min_bytes != expected_min:
                raise RegistryError(
                    f"routing entries do not tile sizes: entry {index} starts at "
                    f"{entry.min_bytes}, expected {expected_min}"
                )
            if entry.max_bytes is None:
                if index != len(self.entries) - 1:
                    raise RegistryError("only the last routing entry may be open-ended")
            else:
                if entry.max_bytes <= entry.min_bytes:
                    raise RegistryError(f"empty routing range at entry {index}")
                expected_min = entry.max_bytes
        if self.entries and self.entries[-1].max_bytes is not None:
            raise RegistryError("last routing entry must be open-ended")


def build_routing_table(
    collective: str,
    topology: Topology,
    algorithms: Sequence[Algorithm],
    *,
    root: int = 0,
    synchrony: int = 0,
    sizes: Sequence[int] = DEFAULT_ROUTE_SIZES,
    protocol: str = DEFAULT_ROUTE_PROTOCOL,
) -> RoutingTable:
    """Score candidate algorithms with the simulator and derive size ranges.

    Each algorithm is lowered once and simulated at every probe size; the
    per-size winner is the minimum simulated wall-clock time.  Runs of
    consecutive probe sizes with the same winner merge into one
    :class:`RouteEntry`; the boundary between two ranges is the geometric
    midpoint of the adjacent probe sizes (sizes are sampled on a geometric
    grid, so that is the unbiased split).
    """
    from ..interchange.plan import topology_fingerprint
    from ..runtime import Simulator, lower

    if not algorithms:
        raise RegistryError("cannot build a routing table from zero algorithms")
    sizes = sorted(set(int(s) for s in sizes))
    if not sizes or sizes[0] <= 0:
        raise RegistryError("probe sizes must be positive")

    started = time.monotonic()
    simulator = Simulator(topology)
    programs = [(algorithm, lower(algorithm, protocol=protocol)) for algorithm in algorithms]

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
        fingerprint=topology_fingerprint(topology),
        root=root,
        synchrony=synchrony,
        protocol=protocol,
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
    payload = {
        "version": ROUTES_VERSION,
        "collective": collective,
        "topology": topology_fingerprint_payload(topology),
        "topology_cost": topology_cost_payload(topology),
        "root": root,
        "synchrony": synchrony,
        **FORMULA,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class PlanRegistry:
    """Pinned-plan cache plus persistent routing tables, both memoized.

    What was read from disk and verified once is kept in memory and
    re-validated by one ``stat`` per lookup, against the ``(mtime_ns, size,
    inode)`` of the file it came from: loaded tables, and pinned plans in
    wire form (at most :data:`PINNED_MEMO_ENTRIES`) signed with their cache
    entry.  A steady-state lookup therefore costs a ``stat`` and two
    dict probes — no read, no decode, no re-verification — and a file that
    was replaced, rewritten, touched or removed goes through the full
    read-and-verify path again, so edited bytes are never served from
    memory.  ``*_json`` lookups hand out the wire form the service sends;
    their plain namesakes decode it into an :class:`AlgorithmPlan`.
    """

    def __init__(
        self,
        cache: Optional[AlgorithmCache] = None,
        routes_dir=None,
    ) -> None:
        self.cache = cache if cache is not None else default_cache()
        if routes_dir is None:
            routes_dir = self.cache.root.parent / "routes"
        self.routes_dir = Path(routes_dir)
        self._lock = threading.Lock()
        # Both signed with the backing file's (mtime_ns, size, inode): loaded
        # tables by routing key, and pinned plans in wire form by (cache key,
        # topology name) in least-recently-used order.
        self._tables: Dict[str, Tuple[Tuple[int, int, int], RoutingTable]] = {}
        self._pinned: Dict[Tuple[str, str], Tuple[Tuple[int, int, int], dict]] = {}
        self.route_hits = 0
        self.route_misses = 0
        self.warm_hits = 0   # lookups answered from memory after one stat

    # ------------------------------------------------------------------
    # Pinned plans (delegated to the algorithm cache)
    # ------------------------------------------------------------------
    def lookup_pinned(
        self, request: PlanRequest, *, topology: Optional[Topology] = None
    ) -> Optional[AlgorithmPlan]:
        """Cached plan for a pinned request, or None (decoded per call)."""
        payload = self.lookup_pinned_json(request, topology=topology)
        if payload is None:
            return None
        return AlgorithmPlan.from_json(payload, verify=False)

    def lookup_pinned_json(
        self,
        request: PlanRequest,
        *,
        topology: Optional[Topology] = None,
        key: Optional[str] = None,
    ) -> Optional[dict]:
        """Wire-form cached plan for a pinned request, or None.

        ``topology`` overrides the request's spec-derived topology — the
        resolver passes the *degraded* topology when faults are active, so
        lookups address plans built for the fabric as it currently is.
        ``key`` is the candidate's cache key when the caller already has it
        (on a healthy fabric it is the request key).

        The answer is shared with later callers (do not mutate it) for as
        long as the entry file keeps its signature.  Only a plan that went
        through the full read, decode and ``verify()`` is ever held, and
        only under the memo key ``(cache key, topology.name)`` it was
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
                self.warm_hits += 1
            else:
                held = None
        if held is not None:
            self.cache.count_hit()
            return held[1]

        algorithm = self.cache.load_algorithm(
            request.collective,
            topology,
            request.chunks,
            request.steps,
            request.rounds,
            root=request.root,
        )
        if algorithm is None:
            return None
        payload = plan_from_algorithm(
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
    def _table_path(self, key: str) -> Path:
        return self.routes_dir / f"{key}.json"

    def load_table(self, key: str) -> Optional[RoutingTable]:
        """Load (and memoize) a routing table; None when absent/invalid."""
        path = self._table_path(key)
        signature = file_signature(path)
        if signature is None:
            return None
        with self._lock:
            cached = self._tables.get(key)
            if cached is not None and cached[0] == signature:
                self.warm_hits += 1
                return cached[1]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            table = RoutingTable.from_json(data)
        except Exception:
            # An unreadable or tampered table is a miss, never an answer.
            return None
        with self._lock:
            self._tables[key] = (signature, table)
        return table

    def save_table(self, key: str, table: RoutingTable) -> Path:
        """Atomically persist a table (concurrent writers: last one wins)."""
        path = self._table_path(key)
        atomic_write(path, json.dumps(table.to_json(), sort_keys=True))
        signature = file_signature(path)
        with self._lock:
            if signature is None:
                self._tables.pop(key, None)
            else:
                self._tables[key] = (signature, table)
        return path

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

    def table_for(
        self,
        request: PlanRequest,
        *,
        topology: Optional[Topology] = None,
        key: Optional[str] = None,
    ) -> Optional[RoutingTable]:
        """``key`` is the request's :meth:`table_key` when already computed."""
        if key is None:
            key = self.table_key(request, topology=topology)
        return self.load_table(key)

    def route(
        self, request: PlanRequest, *, topology: Optional[Topology] = None
    ) -> Optional[Tuple[AlgorithmPlan, RouteEntry, RoutingTable]]:
        """Answer a routed request from a persisted table, or None (the
        plan decoded per call)."""
        routed = self.route_json(request, topology=topology)
        if routed is None:
            return None
        payload, entry, table = routed
        return AlgorithmPlan.from_json(payload, verify=False), entry, table

    def route_json(
        self,
        request: PlanRequest,
        *,
        topology: Optional[Topology] = None,
        key: Optional[str] = None,
    ) -> Optional[Tuple[dict, RouteEntry, RoutingTable]]:
        """:meth:`route` with the plan in the table's own wire form (shared:
        do not mutate)."""
        table = self.table_for(request, topology=topology, key=key)
        if table is None:
            with self._lock:
                self.route_misses += 1
            return None
        entry = table.route(float(request.size_bytes))
        if entry is None:
            with self._lock:
                self.route_misses += 1
            return None
        with self._lock:
            self.route_hits += 1
        # Plans inside a memoized table were verified when the table was
        # loaded: no per-request decode or re-verification on the hot path.
        return table.plan_json(entry), entry, table

    def install_table(
        self,
        request: PlanRequest,
        table: RoutingTable,
        *,
        topology: Optional[Topology] = None,
        key: Optional[str] = None,
    ) -> str:
        if key is None:
            key = self.table_key(request, topology=topology)
        self.save_table(key, table)
        return key

    # ------------------------------------------------------------------
    def tables(self) -> List[Path]:
        if not self.routes_dir.exists():
            return []
        return sorted(self.routes_dir.glob("*.json"))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            hits, misses = self.route_hits, self.route_misses
        return {
            "cache": self.cache.stats(),
            "route_hits": hits,
            "route_misses": misses,
            "tables": len(self.tables()),
        }


def default_registry() -> PlanRegistry:
    """Registry over the process-default cache (routes live beside it)."""
    return PlanRegistry(cache=default_cache())
