"""Declarative fault models and degraded-topology derivation.

The paper's premise is that collective algorithms are synthesized *per
topology* (Section 3.2.1): when the topology changes, the algorithm must
change too.  This module makes topology degradation a first-class, explicit
input instead of an out-of-band edit:

* :class:`LinkDown` — a directed link is gone (NVLink lane failure, cable
  pull).  The link is removed from every bandwidth constraint that covers
  it, so the solver cannot schedule traffic over it.
* :class:`RankDown` — a whole node is gone.  Every link touching the rank
  is removed.  Note that collectives whose pre/postconditions mention the
  dead rank (e.g. Allgather over all nodes) become unsatisfiable on the
  degraded topology — that is the honest answer, not an error in the model.
* :class:`LinkDegraded` — the link still works but costs more: ``alpha``
  and/or ``beta`` inflation (retraining retries, signal degradation) and
  an optional hard bandwidth cap.  Cost inflation only moves the routing
  frontier; a bandwidth cap also changes the structural relation the
  solver sees.

A :class:`FaultSet` composes faults, fingerprints them canonically, and
derives a degraded :class:`~repro.topology.Topology` whose ``provenance``
records the base topology and the faults applied — a degraded topology is
never silently confusable with a healthy one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple, Union

from ..topology import (
    DEFAULT_LINK_LATENCY_S,
    BandwidthConstraint,
    Link,
    Topology,
)


class FaultError(Exception):
    """Raised for malformed fault specifications or invalid applications."""


@dataclass(frozen=True)
class LinkDown:
    """A directed link that no longer carries traffic."""

    src: int
    dst: int

    kind = "link_down"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise FaultError(f"self-loop fault {self.src}->{self.dst}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "src": self.src, "dst": self.dst}

    def describe(self) -> str:
        return f"link {self.src}->{self.dst} down"


@dataclass(frozen=True)
class RankDown:
    """A node that left the machine: every link touching it is dead."""

    rank: int

    kind = "rank_down"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultError(f"negative rank {self.rank}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    def describe(self) -> str:
        return f"rank {self.rank} down"


@dataclass(frozen=True)
class LinkDegraded:
    """A link that still works but is slower (and possibly narrower).

    ``alpha_factor`` multiplies the link's latency, ``beta_factor`` its
    per-byte time; ``bandwidth`` (when given) caps the link's chunks/round
    capacity, which changes the structural bandwidth relation the solver
    sees.
    """

    src: int
    dst: int
    alpha_factor: float = 1.0
    beta_factor: float = 1.0
    bandwidth: Union[int, None] = None

    kind = "link_degraded"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise FaultError(f"self-loop fault {self.src}->{self.dst}")
        if self.alpha_factor <= 0 or self.beta_factor <= 0:
            raise FaultError("degradation factors must be positive")
        if self.bandwidth is not None and self.bandwidth < 0:
            raise FaultError("bandwidth cap must be non-negative")

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "alpha_factor": self.alpha_factor,
            "beta_factor": self.beta_factor,
        }
        if self.bandwidth is not None:
            data["bandwidth"] = self.bandwidth
        return data

    def describe(self) -> str:
        parts = []
        if self.alpha_factor != 1.0:
            parts.append(f"alpha x{self.alpha_factor:g}")
        if self.beta_factor != 1.0:
            parts.append(f"beta x{self.beta_factor:g}")
        if self.bandwidth is not None:
            parts.append(f"bandwidth<={self.bandwidth}")
        detail = ", ".join(parts) or "no-op"
        return f"link {self.src}->{self.dst} degraded ({detail})"


Fault = Union[LinkDown, RankDown, LinkDegraded]

_FAULT_KINDS = {
    LinkDown.kind: LinkDown,
    RankDown.kind: RankDown,
    LinkDegraded.kind: LinkDegraded,
}


def fault_from_json(data: dict) -> Fault:
    """Decode one fault from its wire form."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError) as exc:
        raise FaultError(f"fault without a kind: {data!r}") from exc
    cls = _FAULT_KINDS.get(kind)
    if cls is None:
        raise FaultError(f"unknown fault kind {kind!r}")
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise FaultError(f"malformed {kind} fault: {exc}") from exc


@dataclass(frozen=True)
class FaultSet:
    """An ordered, deduplicated set of faults applied together."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault) -> "FaultSet":
        return cls(tuple(faults))

    def __post_init__(self) -> None:
        seen = set()
        for fault in self.faults:
            key = json.dumps(fault.to_json(), sort_keys=True)
            if key in seen:
                raise FaultError(f"duplicate fault: {fault.describe()}")
            seen.add(key)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def merge(self, other: "FaultSet") -> "FaultSet":
        """Union of two fault sets (duplicates from ``other`` are dropped)."""
        seen = {json.dumps(f.to_json(), sort_keys=True) for f in self.faults}
        merged = list(self.faults)
        for fault in other.faults:
            key = json.dumps(fault.to_json(), sort_keys=True)
            if key not in seen:
                seen.add(key)
                merged.append(fault)
        return FaultSet(tuple(merged))

    # ------------------------------------------------------------------
    # Wire form / identity
    # ------------------------------------------------------------------
    def to_json(self) -> List[dict]:
        return [fault.to_json() for fault in self.faults]

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "FaultSet":
        if not isinstance(data, (list, tuple)):
            raise FaultError("a fault set is a JSON list of fault objects")
        return cls(tuple(fault_from_json(entry) for entry in data))

    def fingerprint(self) -> str:
        """Order-insensitive content hash of the fault set."""
        payload = sorted(
            json.dumps(fault.to_json(), sort_keys=True) for fault in self.faults
        )
        blob = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return "; ".join(fault.describe() for fault in self.faults)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def dead_ranks(self) -> Set[int]:
        return {f.rank for f in self.faults if isinstance(f, RankDown)}

    def dead_links(self, topology: Topology) -> Set[Link]:
        """Every directed link of ``topology`` that the faults kill.

        ``LinkDown`` kills its link; ``RankDown`` kills every link touching
        the rank; a ``LinkDegraded`` with ``bandwidth=0`` kills its link too.
        """
        dead: Set[Link] = set()
        down_ranks = self.dead_ranks()
        for link in topology.links():
            src, dst = link
            if src in down_ranks or dst in down_ranks:
                dead.add(link)
        for fault in self.faults:
            if isinstance(fault, LinkDown):
                dead.add((fault.src, fault.dst))
            elif isinstance(fault, LinkDegraded) and fault.bandwidth == 0:
                dead.add((fault.src, fault.dst))
        return dead

    def validate(self, topology: Topology) -> None:
        """Reject faults that do not name anything in ``topology``."""
        links = topology.links()
        for fault in self.faults:
            if isinstance(fault, RankDown):
                if not 0 <= fault.rank < topology.num_nodes:
                    raise FaultError(
                        f"rank {fault.rank} out of range for topology "
                        f"{topology.name!r} with {topology.num_nodes} nodes"
                    )
            else:
                if (fault.src, fault.dst) not in links:
                    raise FaultError(
                        f"no link {fault.src}->{fault.dst} in topology "
                        f"{topology.name!r}"
                    )

    def apply(self, topology: Topology) -> Topology:
        """Derive the degraded topology, with provenance.

        Dead links are removed from every bandwidth constraint covering
        them (constraints left empty are dropped); ``LinkDegraded`` caps
        add a point-to-point constraint, and its cost inflation lands in
        ``link_latency`` / ``link_beta_scale``.  An empty fault set returns
        the topology unchanged (same object).
        """
        if not self.faults:
            return topology
        self.validate(topology)
        dead = self.dead_links(topology)

        constraints: List[BandwidthConstraint] = []
        for constraint in topology.constraints:
            surviving = frozenset(link for link in constraint.links if link not in dead)
            if not surviving:
                continue
            if surviving == constraint.links:
                constraints.append(constraint)
            else:
                constraints.append(
                    BandwidthConstraint(surviving, constraint.bandwidth, constraint.name)
                )

        link_latency: Dict[Link, float] = {
            link: value for link, value in topology.link_latency.items()
            if link not in dead
        }
        link_beta_scale: Dict[Link, float] = {
            link: value for link, value in topology.link_beta_scale.items()
            if link not in dead
        }
        for fault in self.faults:
            if not isinstance(fault, LinkDegraded):
                continue
            link = (fault.src, fault.dst)
            if link in dead:
                continue
            if fault.bandwidth is not None:
                constraints.append(
                    BandwidthConstraint(
                        frozenset({link}),
                        fault.bandwidth,
                        f"degraded:{fault.src}->{fault.dst}",
                    )
                )
            if fault.alpha_factor != 1.0:
                base = link_latency.get(link, DEFAULT_LINK_LATENCY_S)
                link_latency[link] = base * fault.alpha_factor
            if fault.beta_factor != 1.0:
                link_beta_scale[link] = (
                    link_beta_scale.get(link, 1.0) * fault.beta_factor
                )

        fp = self.fingerprint()
        degraded = Topology(
            name=f"{topology.name}!deg-{fp[:8]}",
            num_nodes=topology.num_nodes,
            constraints=constraints,
            alpha=topology.alpha,
            beta=topology.beta,
            link_latency=link_latency,
            link_beta_scale=link_beta_scale,
            provenance={
                "base_topology": topology.name,
                "fault_fingerprint": fp,
                "faults": self.to_json(),
            },
        )
        return degraded
