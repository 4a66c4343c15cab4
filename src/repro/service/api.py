"""Typed request/response API of the planning service.

A :class:`PlanRequest` asks the service for a deployable collective
algorithm in one of two modes:

* **pinned** — the caller names the full candidate ``(C, S, R)``; the
  service answers with exactly that algorithm (cache hit, fresh synthesis,
  or a baseline fallback when the deadline expires).
* **routed** — the caller names only a per-node buffer size; the service
  consults the :class:`~repro.service.registry.PlanRegistry` routing table
  for the ``(collective, topology)`` pair and answers with the
  simulator-fastest frontier algorithm for that size, building (and
  memoizing) the table on first use.

Requests are *content addressed*: :meth:`PlanRequest.request_key` reuses the
engine cache's candidate fingerprint for pinned requests, so the broker's
coalescing, the algorithm cache and the registry all agree on what
"identical work" means.  Caller-local fields (the deadline) are explicitly
excluded from the key — two callers with different patience still share one
synthesis.

Both types have stable JSON wire forms (``to_json`` / ``from_json``); the
HTTP server and the ``repro request`` client speak exactly these.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional

from ..cli.topologies import TopologySpecError, parse_topology
from ..topology import Topology

if TYPE_CHECKING:
    from ..interchange.plan import AlgorithmPlan

API_VERSION = 1

#: Default per-request deadline (seconds) when the caller supplies none.
DEFAULT_DEADLINE_S = 300.0

#: Largest ``deadline_s`` a request may ask for: a day.
MAX_DEADLINE_S = 24 * 3600.0

#: Largest ``synchrony`` (k) a request may ask for.  A routed build sweeps
#: every step count with rounds up to S + k, so the candidate lattice grows
#: with k before any solve or deadline check runs (k = 2000 enumerates
#: 1 336 001 candidates for its first step count alone).  Every caller in
#: the repository uses 0-2, and the largest R - S of any base-collective
#: row of the paper's Tables 4 and 5 is 6 (Alltoall, (C, S, R) = (24, 2, 8)).
MAX_SYNCHRONY = 8


class ServiceError(Exception):
    """Raised for malformed service requests or responses."""


@dataclass(frozen=True)
class PlanRequest:
    """One planning question: "give me an algorithm for this job".

    ``topology`` is a CLI topology spec string (``ring:4``, ``dgx1``, ...)
    — the wire form stays a one-liner and the server re-derives the
    structural fingerprint itself rather than trusting the caller's.
    """

    collective: str
    topology: str
    chunks: Optional[int] = None
    steps: Optional[int] = None
    rounds: Optional[int] = None
    root: int = 0
    size_bytes: Optional[int] = None
    synchrony: int = 2            # k budget for routed-mode frontier sweeps
    deadline_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Validation / mode
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"pinned"`` or ``"routed"`` (raises for ambiguous requests)."""
        pinned = [self.chunks, self.steps, self.rounds]
        if all(v is not None for v in pinned):
            return "pinned"
        if any(v is not None for v in pinned):
            raise ServiceError(
                "pinned requests need all of chunks, steps and rounds "
                f"(got C={self.chunks}, S={self.steps}, R={self.rounds})"
            )
        if self.size_bytes is not None:
            return "routed"
        raise ServiceError(
            "request must pin (chunks, steps, rounds) or supply size_bytes "
            "for routing"
        )

    def validate(self) -> "PlanRequest":
        """Check field ranges and the topology spec; returns self."""
        mode = self.mode  # raises on ambiguous shape
        if not self.collective:
            raise ServiceError("collective must be non-empty")
        if mode == "pinned" and min(self.chunks, self.steps, self.rounds) < 1:
            raise ServiceError("chunks, steps and rounds must be positive")
        if mode == "routed" and self.size_bytes <= 0:
            raise ServiceError("size_bytes must be positive")
        if not 0 <= self.synchrony <= MAX_SYNCHRONY:
            raise ServiceError(f"synchrony must be between 0 and {MAX_SYNCHRONY}")
        if self.deadline_s is not None and not 0 < self.deadline_s <= MAX_DEADLINE_S:
            raise ServiceError(f"deadline_s must be positive and at most {MAX_DEADLINE_S:g} s")
        self.resolve_topology()
        return self

    def resolve_topology(self) -> Topology:
        """The spec's topology, parsed once per request object.

        The request is frozen, so the answer cannot change; every caller
        gets the same :class:`Topology` and must not mutate it.
        (``dataclasses.replace`` builds a new request, which parses again.)
        """
        return self._topology

    @cached_property
    def _topology(self) -> Topology:
        try:
            return parse_topology(self.topology)
        except TopologySpecError as exc:
            raise ServiceError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def request_key(self) -> str:
        """Content hash identifying this request's *work*.

        Pinned requests reuse the engine cache fingerprint verbatim, so a
        request key doubles as the cache key of the answer.  Routed
        requests hash the structural topology payload plus the routing
        inputs and the constant formula.  The deadline is a caller
        preference, not work content, and is excluded.  Hashed once per
        request object.
        """
        return self._key

    @cached_property
    def _key(self) -> str:
        from ..engine.cache import (
            FORMULA,
            content_hash,
            fingerprint,
            topology_fingerprint_payload,
        )

        topology = self.resolve_topology()
        if self.mode == "pinned":
            return fingerprint(
                self.collective,
                topology,
                self.chunks,
                self.steps,
                self.rounds,
                root=self.root,
            )
        return content_hash({
            "version": API_VERSION,
            "mode": "routed",
            "collective": self.collective,
            "topology": topology_fingerprint_payload(topology),
            "root": self.root,
            "size_bytes": self.size_bytes,
            "synchrony": self.synchrony,
            **FORMULA,
        })

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        data = {
            "version": API_VERSION,
            "collective": self.collective,
            "topology": self.topology,
            "root": self.root,
            "synchrony": self.synchrony,
        }
        for name in ("chunks", "steps", "rounds", "size_bytes", "deadline_s"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PlanRequest":
        if not isinstance(data, dict):
            raise ServiceError("request payload must be a JSON object")
        version = data.get("version", API_VERSION)
        if version != API_VERSION:
            raise ServiceError(f"unsupported request version {version!r}")
        unknown = sorted(map(str, data.keys() - _REQUEST_KEYS))
        if unknown:
            gone = "; 'backend' is gone: cdcl is the only solver" if "backend" in unknown else ""
            raise ServiceError(f"unknown request field(s): {', '.join(unknown)}{gone}")
        for name, value in _FIXED_FIELDS.items():
            if name in data and (type(data[name]) is not type(value) or data[name] != value):
                raise ServiceError(
                    f"'{name}' is gone: every plan solves the sccl formula with "
                    f"pruning, so {name} may only be {json.dumps(value)} "
                    f"(got {data[name]!r})"
                )
        try:
            request = cls(
                collective=str(data["collective"]),
                topology=str(data["topology"]),
                chunks=_field(data, "chunks", int),
                steps=_field(data, "steps", int),
                rounds=_field(data, "rounds", int),
                root=_field(data, "root", int, 0),
                size_bytes=_field(data, "size_bytes", int),
                synchrony=_field(data, "synchrony", int, 2),
                deadline_s=_field(data, "deadline_s", float),
            )
        except KeyError as exc:
            raise ServiceError(f"malformed request: missing {exc}") from exc
        return request.validate()

    def describe(self) -> str:
        if self.mode == "pinned":
            shape = f"C={self.chunks} S={self.steps} R={self.rounds}"
        else:
            shape = f"size={self.size_bytes}B k={self.synchrony}"
        return f"{self.collective} on {self.topology} [{shape}]"


_JSON_TYPES = {int: "an integer", float: "a number", bool: "a boolean"}


#: Keys earlier clients send, accepted only at the values that name the one
#: formula (``engine/cache.py:FORMULA``; this module loads without the engine).
_FIXED_FIELDS = {"encoding": "sccl", "prune": True}

#: The request schema: every key ``from_json`` accepts.
_REQUEST_KEYS = frozenset((
    "version", "collective", "topology", "chunks", "steps", "rounds", "root",
    "size_bytes", "synchrony", "deadline_s", *_FIXED_FIELDS,
))


def _field(data: dict, key: str, kind: type, default=None):
    """``data[key]`` if it is a JSON ``kind`` (null only where the default is
    None).  An integral float counts as an integer and an integer as a number;
    nothing else is coerced: ``int(1.9)`` or ``bool("false")`` asks another question."""
    value = data.get(key, default)
    if type(value) is kind or (value is None and default is None):
        return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) is int:
        return float(value)
    raise ServiceError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
#: How the plan in a response was obtained.
SOURCES = ("registry", "cache", "synthesized", "baseline")

#: Terminal request outcomes.
STATUSES = ("ok", "timeout", "error")


@dataclass
class PlanResponse:
    """The service's answer: a plan bundle plus provenance and timing."""

    status: str                       # one of STATUSES
    request_key: str
    #: ``AlgorithmPlan.to_json()`` when status == "ok".  Read-only: a warm
    #: answer carries the registry's own copy, shared with later answers.
    plan: Optional[dict] = None
    source: str = ""                  # one of SOURCES when status == "ok"
    solve_time_s: float = 0.0         # worker-side time spent answering
    wait_time_s: float = 0.0          # caller-side queueing + coalescing wait
    coalesced: bool = False           # True when this caller shared another's work
    route: Optional[Dict[str, object]] = None  # routed mode: chosen table entry
    error: Optional[str] = None
    error_kind: Optional[str] = None  # exception class name when status == "error"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def plan_object(self) -> AlgorithmPlan:
        """Decode and re-verify the carried plan bundle."""
        from ..interchange.plan import AlgorithmPlan

        if self.plan is None:
            raise ServiceError(f"response has no plan (status={self.status!r})")
        return AlgorithmPlan.from_json(self.plan)

    def to_json(self) -> dict:
        data = {
            "version": API_VERSION,
            "status": self.status,
            "request_key": self.request_key,
            "source": self.source,
            "solve_time_s": self.solve_time_s,
            "wait_time_s": self.wait_time_s,
            "coalesced": self.coalesced,
        }
        if self.plan is not None:
            data["plan"] = self.plan
        if self.route is not None:
            data["route"] = self.route
        if self.error is not None:
            data["error"] = self.error
        if self.error_kind is not None:
            data["error_kind"] = self.error_kind
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PlanResponse":
        if not isinstance(data, dict):
            raise ServiceError("response payload must be a JSON object")
        status = data.get("status")
        if status not in STATUSES:
            raise ServiceError(f"invalid response status {status!r}")
        return cls(
            status=status,
            request_key=str(data.get("request_key", "")),
            plan=data.get("plan"),
            source=str(data.get("source", "")),
            solve_time_s=float(data.get("solve_time_s", 0.0)),
            wait_time_s=float(data.get("wait_time_s", 0.0)),
            coalesced=bool(data.get("coalesced", False)),
            route=data.get("route"),
            error=data.get("error"),
            error_kind=data.get("error_kind"),
        )

    def with_wait(self, wait_time_s: float, *, coalesced: bool) -> "PlanResponse":
        """Per-caller copy of a shared result (broker fan-out)."""
        return replace(self, wait_time_s=wait_time_s, coalesced=coalesced)

    def summary(self) -> str:
        key = self.request_key[:12] + ".." if self.request_key else "?"
        if self.ok:
            extra = " (coalesced)" if self.coalesced else ""
            return (
                f"{key} -> {self.status} from {self.source} in "
                f"{self.solve_time_s:.2f}s (waited {self.wait_time_s:.2f}s){extra}"
            )
        reason = f": {self.error}" if self.error else ""
        return f"{key} -> {self.status}{reason}"


# ----------------------------------------------------------------------
# Fault registration
# ----------------------------------------------------------------------
#: Fault endpoint verbs.
FAULT_ACTIONS = ("register", "clear", "status")


@dataclass(frozen=True)
class FaultRequest:
    """One fault-board mutation or query against a named topology.

    ``register`` merges the carried faults into the board for the topology,
    ``clear`` drops every registered fault, ``status`` reads back the active
    set without mutating anything.  ``faults`` uses the wire form of
    :meth:`repro.faults.FaultSet.to_json`.
    """

    topology: str
    action: str = "status"
    faults: tuple = ()

    def validate(self) -> "FaultRequest":
        if self.action not in FAULT_ACTIONS:
            raise ServiceError(
                f"unknown fault action {self.action!r} (expected one of {FAULT_ACTIONS})"
            )
        if self.action == "register" and not self.faults:
            raise ServiceError("register requires at least one fault")
        if self.action != "register" and self.faults:
            raise ServiceError(f"action {self.action!r} takes no faults")
        self.fault_set()  # raises on malformed fault payloads
        self.resolve_topology()
        return self

    def resolve_topology(self) -> Topology:
        try:
            return parse_topology(self.topology)
        except TopologySpecError as exc:
            raise ServiceError(str(exc)) from exc

    def fault_set(self):
        from ..faults import FaultError, FaultSet

        try:
            return FaultSet.from_json(list(self.faults))
        except FaultError as exc:
            raise ServiceError(str(exc)) from exc

    def to_json(self) -> dict:
        data = {
            "version": API_VERSION,
            "topology": self.topology,
            "action": self.action,
        }
        if self.faults:
            data["faults"] = list(self.faults)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FaultRequest":
        if not isinstance(data, dict):
            raise ServiceError("fault payload must be a JSON object")
        version = data.get("version", API_VERSION)
        if version != API_VERSION:
            raise ServiceError(f"unsupported request version {version!r}")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ServiceError("faults must be a list of fault objects")
        try:
            request = cls(
                topology=str(data["topology"]),
                action=str(data.get("action", "status")),
                faults=tuple(faults),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed fault request: {exc}") from exc
        return request.validate()


@dataclass
class FaultResponse:
    """The fault endpoint's answer: the board state after the action."""

    status: str                       # "ok" or "error"
    topology: str = ""
    action: str = ""
    faults: list = field(default_factory=list)   # active FaultSet wire form
    fingerprint: str = ""             # FaultSet.fingerprint() ("" when empty)
    degraded: Optional[Dict[str, object]] = None  # degraded-topology summary
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        data = {
            "version": API_VERSION,
            "status": self.status,
            "topology": self.topology,
            "action": self.action,
            "faults": self.faults,
            "fingerprint": self.fingerprint,
        }
        if self.degraded is not None:
            data["degraded"] = self.degraded
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FaultResponse":
        if not isinstance(data, dict):
            raise ServiceError("fault response payload must be a JSON object")
        status = data.get("status")
        if status not in ("ok", "error"):
            raise ServiceError(f"invalid fault response status {status!r}")
        return cls(
            status=status,
            topology=str(data.get("topology", "")),
            action=str(data.get("action", "")),
            faults=list(data.get("faults", [])),
            fingerprint=str(data.get("fingerprint", "")),
            degraded=data.get("degraded"),
            error=data.get("error"),
        )

    def summary(self) -> str:
        count = len(self.faults)
        if not self.ok:
            return f"fault {self.action} on {self.topology}: error: {self.error}"
        noun = "fault" if count == 1 else "faults"
        return f"fault {self.action} on {self.topology}: {count} active {noun}"
