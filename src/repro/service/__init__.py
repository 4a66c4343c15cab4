"""The planning service: concurrent synthesis brokering and plan serving.

The paper's pipeline ends when an algorithm is synthesized; production
serving starts there.  This package turns the synthesis engine into an
online service: typed :class:`PlanRequest`/:class:`PlanResponse` messages
(:mod:`~repro.service.api`), a thread-safe broker that *coalesces*
identical in-flight requests so N concurrent callers trigger exactly one
synthesis (:mod:`~repro.service.broker`), a worker pool whose resolution
ladder degrades from cache hit through incremental synthesis to a baseline
algorithm on deadline expiry (:mod:`~repro.service.workers`), a registry
layering buffer-size routing tables over the algorithm cache
(:mod:`~repro.service.registry`), and a stdlib HTTP endpoint plus client
(:mod:`~repro.service.server`) behind ``repro serve`` / ``repro request``.

``import repro.service`` loads the client only, not the synthesis stack:
client names are the wire format (``PlanRequest``, ``PlanResponse``,
``FaultRequest``, ``FaultResponse``, ``ServiceError``, ``API_VERSION``,
``DEFAULT_DEADLINE_S``, ``FAULT_ACTIONS``) and the HTTP transport
(``request_plan``, ``request_fault``, ``fetch_stats``, ``fetch_metrics``,
``check_health``, ``make_server``, ``ServerThread``, ``PlanningHTTPServer``,
``DEFAULT_HOST``, ``DEFAULT_PORT``).  Server names — the broker's, the
fault board's, the registry's and the workers' (``PlanningService``, ...),
listed in ``_SERVER_NAMES`` — load on first access.
"""

import importlib

from .api import (
    API_VERSION,
    DEFAULT_DEADLINE_S,
    FAULT_ACTIONS,
    FaultRequest,
    FaultResponse,
    PlanRequest,
    PlanResponse,
    ServiceError,
)
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PlanningHTTPServer,
    ServerThread,
    check_health,
    fetch_metrics,
    fetch_stats,
    make_server,
    request_fault,
    request_plan,
)

#: Server-side names, by the submodule that defines them.
_SERVER_NAMES = {
    "broker": ("Broker", "BrokerError", "Job", "Ticket"),
    "faults": ("FaultBoard", "apply_fault_request"),
    "registry": ("PlanRegistry", "ROUTE_SIZES", "RegistryError", "RouteEntry",
                 "RoutingTable", "build_routing_table", "default_registry", "routing_key"),
    "workers": ("PlanningService", "SynthesisResolver", "WorkerError", "WorkerPool",
                "baseline_algorithm"),
}
_LAZY = {name: module for module, names in _SERVER_NAMES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "API_VERSION",
    "Broker",
    "BrokerError",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "FAULT_ACTIONS",
    "FaultBoard",
    "FaultRequest",
    "FaultResponse",
    "Job",
    "PlanRegistry",
    "PlanRequest",
    "PlanResponse",
    "PlanningHTTPServer",
    "PlanningService",
    "ROUTE_SIZES",
    "RegistryError",
    "RouteEntry",
    "RoutingTable",
    "ServerThread",
    "ServiceError",
    "SynthesisResolver",
    "Ticket",
    "WorkerError",
    "WorkerPool",
    "apply_fault_request",
    "baseline_algorithm",
    "build_routing_table",
    "check_health",
    "fetch_metrics",
    "fetch_stats",
    "default_registry",
    "make_server",
    "request_fault",
    "request_plan",
    "routing_key",
]
