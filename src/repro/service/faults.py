"""The service's fault board: live fault state keyed by topology.

The board is the single mutable piece of fault-tolerance state in the
planning service.  Operators register :class:`~repro.faults.Fault`\\ s
against a topology (``POST /v1/fault`` / ``repro fault``); every
subsequent plan request for that topology is resolved against the
*degraded* topology the active :class:`~repro.faults.FaultSet` derives.

Two integration points matter:

* :meth:`FaultBoard.fabric` is called by the resolver before any registry
  lookup or synthesis, so cache keys, routing keys and verification all
  see the degraded topology — a plan can never silently route over a
  link the operator declared dead.
* :meth:`FaultBoard.job_key` is the broker's key function: the request
  key and the name of the fabric it resolves to, the identity every
  registry memo uses.  A degraded fabric is named after its fault set
  (``ring4!deg-<fingerprint>``), so a request issued *after* a fault
  registration never coalesces with an in-flight synthesis that still
  targets the healthy fabric, and ``ring:3`` never with ``fc:3``.

Both read a :class:`Fabric`: what one topology spec resolves to while the
board's fault state stays as it is, computed once and dropped by every
``register`` / ``clear``.

A transition deletes no routing table and no cache entry: content
addressing is the invalidation.  ``LinkDown``, ``RankDown`` and a
``LinkDegraded`` bandwidth cap change the fabric's structure, so every
cache, pinned and routing key changes with it.  A cost-only
``LinkDegraded`` keeps the structural key, where the cached schedule is
equally valid (the cache re-attaches it to the degraded topology and
re-verifies it), and changes the routing key, whose payload hashes the
α/β costs.  After ``clear`` the healthy keys come back, and with them the
healthy artifacts; a fault registered again finds its degraded ones.

Entries are keyed by the *structural* topology fingerprint: two spec
strings that parse to the same fabric (``dgx1`` vs. an equivalent
explicit spec) share one fault set.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..faults import FaultError, FaultSet
from ..interchange.plan import topology_fingerprint
from ..topology import Topology
from .api import FaultRequest, FaultResponse, PlanRequest, ServiceError


#: Topology specs (and derived keys per spec) a board keeps resolved; specs
#: are outside input, so a board past the bound starts over.
FABRIC_MEMO_ENTRIES = 64


@dataclass
class Fabric:
    """One topology spec as the board sees it under one fault state.

    Everything here depends only on (spec, fault state), so it is worked
    out once per state: ``register`` and ``clear`` drop every ``Fabric``.
    """

    topology: Topology        # what plans must target: degraded under faults
    degraded: bool
    #: Content hashes derived from ``topology`` (the resolver's routing
    #: keys), by the request fields they also depend on.
    keys: Dict[tuple, str] = field(default_factory=dict)

    def key(self, fields: tuple, compute) -> str:
        """``compute()`` once per ``fields``, remembered with this fabric.

        Unlocked on purpose: the value is a pure function of the key, so two
        workers racing here store the same thing.
        """
        key = self.keys.get(fields)
        if key is None:
            if len(self.keys) >= FABRIC_MEMO_ENTRIES:
                self.keys.clear()
            key = self.keys[fields] = compute()
        return key


class FaultBoard:
    """Thread-safe registry of active fault sets, one per topology."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._faults: Dict[str, FaultSet] = {}
        self._names: Dict[str, str] = {}  # fingerprint -> last seen topology name
        self._fabrics: Dict[str, Fabric] = {}  # topology spec -> its current view

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(self, topology: Topology, fault_set: FaultSet) -> FaultSet:
        """Merge ``fault_set`` into the board; returns the active set.

        The merged set is validated against the *healthy* topology before
        it is installed, so a bad registration leaves the board untouched.
        """
        key = topology_fingerprint(topology)
        with self._lock:
            merged = self._faults.get(key, FaultSet.of()).merge(fault_set)
            merged.validate(topology)
            if merged:
                self._faults[key] = merged
                self._names[key] = topology.name
                self._fabrics.clear()
            return merged

    def clear(self, topology: Topology) -> FaultSet:
        """Drop every fault registered for ``topology``; returns what was dropped."""
        key = topology_fingerprint(topology)
        with self._lock:
            self._names.pop(key, None)
            self._fabrics.clear()
            return self._faults.pop(key, FaultSet.of())

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, topology: Topology) -> FaultSet:
        with self._lock:
            return self._faults.get(topology_fingerprint(topology), FaultSet.of())

    def fabric(self, request: PlanRequest) -> Fabric:
        """The request's topology spec under the current fault state.

        Resolved under the lock ``register`` / ``clear`` take, so a fabric
        worked out against the old state is never kept for the new one.
        """
        with self._lock:
            fabric = self._fabrics.get(request.topology)
            if fabric is None:
                base = request.resolve_topology()
                fault_set = self._faults.get(topology_fingerprint(base))
                if fault_set:
                    fabric = Fabric(fault_set.apply(base), True)
                else:
                    fabric = Fabric(base, False)
                if len(self._fabrics) >= FABRIC_MEMO_ENTRIES:
                    self._fabrics.clear()
                self._fabrics[request.topology] = fabric
            return fabric

    def job_key(self, request: PlanRequest) -> Tuple[str, str]:
        """Broker key function: ``(request key, fabric name)``.

        The name is the fault state's part of the key: a degraded fabric is
        named after its fault set, and the healthy one after its spec.
        """
        return request.request_key(), self.fabric(request).topology.name

    def snapshot(self) -> Dict[str, object]:
        """Stats payload: active fault sets by topology."""
        with self._lock:
            return {
                "active_topologies": len(self._faults),
                "faults": {
                    self._names.get(key, key[:12]): [f.describe() for f in fault_set]
                    for key, fault_set in sorted(self._faults.items())
                },
            }


def _degraded_summary(topology: Topology, degraded: Topology) -> Dict[str, object]:
    healthy_links = set(topology.links())
    degraded_links = set(degraded.links())
    return {
        "name": degraded.name,
        "num_nodes": degraded.num_nodes,
        "links": len(degraded_links),
        "links_removed": len(healthy_links - degraded_links),
        "fingerprint": topology_fingerprint(degraded),
    }


def apply_fault_request(board: FaultBoard, request: FaultRequest) -> FaultResponse:
    """Execute one :class:`FaultRequest` against the board.

    A transition deletes nothing: every cache entry and memoized table is
    addressed by a hash of the fabric it was built for, so the board's new state alone
    decides what the next request can reach (see the module docstring).
    """
    try:
        topology = request.resolve_topology()
        if request.action == "register":
            active = board.register(topology, request.fault_set())
        elif request.action == "clear":
            board.clear(topology)
            active = FaultSet.of()
        else:
            active = board.get(topology)
    except (FaultError, ServiceError) as exc:
        return FaultResponse(
            status="error",
            topology=request.topology,
            action=request.action,
            error=str(exc),
        )

    degraded = None
    if active:
        degraded = _degraded_summary(topology, active.apply(topology))
    return FaultResponse(
        status="ok",
        topology=request.topology,
        action=request.action,
        faults=active.to_json(),
        fingerprint=active.fingerprint() if active else "",
        degraded=degraded,
    )
