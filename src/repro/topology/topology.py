"""Topology model: nodes, links and the bandwidth relation B.

Section 3.2.1 of the paper models a topology as a node count ``P`` and a
*bandwidth relation* ``B ⊆ P([P] × [P]) × N``: each entry ``(L, b)`` bounds
the number of chunks that may traverse the set of directed links ``L``
during a single round by ``b``.  Point-to-point links, shared-bus segments
and per-node egress caps are all expressible this way, and the synthesis
encoding consumes the relation directly (constraint C5).

A :class:`Topology` additionally carries per-link latency/bandwidth figures
(``alpha``/``beta`` in the paper's cost model, Section 2.3) so that the
runtime simulator and the evaluation harness can turn synthesized schedules
into wall-clock estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Link = Tuple[int, int]

#: Per-link latency assumed when a topology carries no explicit override
#: (the NVLink hop latency the simulator's cost model is calibrated to).
DEFAULT_LINK_LATENCY_S = 0.7e-6


class TopologyError(Exception):
    """Raised for malformed topologies or out-of-range nodes."""


@dataclass(frozen=True)
class BandwidthConstraint:
    """One entry ``(L, b)`` of the bandwidth relation.

    ``links`` is the set of directed links the constraint covers and
    ``bandwidth`` the maximum number of chunks that may cross those links in
    one round (multiplied by ``r_s`` for a step with ``r_s`` rounds).
    """

    links: FrozenSet[Link]
    bandwidth: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise TopologyError(f"negative bandwidth in constraint {self.name!r}")
        if not isinstance(self.links, frozenset):
            # Immutable all the way down: Algorithm.verify relies on it.
            object.__setattr__(self, "links", frozenset(self.links))

    def covers(self, link: Link) -> bool:
        return link in self.links


@dataclass
class Topology:
    """A communication topology.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"dgx1"``).
    num_nodes:
        Number of nodes ``P``.
    constraints:
        The bandwidth relation ``B`` as a list of :class:`BandwidthConstraint`.
    alpha:
        Per-step fixed cost (seconds) used by the cost model.
    beta:
        Per-byte cost (seconds/byte) of a unit-bandwidth link.
    link_latency:
        Optional per-link latency overrides used by the simulator.
    link_beta_scale:
        Optional per-link multipliers on the per-byte cost (``> 1`` means
        slower than nominal).  Used by fault models to express degraded
        links without touching the structural bandwidth relation.
    provenance:
        Free-form metadata describing how a derived topology was obtained
        (e.g. the fault set applied to a healthy base topology).  Never
        part of the structural fingerprint.
    """

    name: str
    num_nodes: int
    constraints: List[BandwidthConstraint] = field(default_factory=list)
    alpha: float = 5e-6
    beta: float = 1.0 / 25e9
    link_latency: Dict[Link, float] = field(default_factory=dict)
    link_beta_scale: Dict[Link, float] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise TopologyError("a topology needs at least one node")
        for constraint in self.constraints:
            for (src, dst) in constraint.links:
                self._check_node(src)
                self._check_node(dst)
                if src == dst:
                    raise TopologyError(f"self-loop {src}->{dst} is not allowed")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node {node} out of range for topology {self.name!r} with "
                f"{self.num_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # Derived link structure
    # ------------------------------------------------------------------
    def nodes(self) -> range:
        return range(self.num_nodes)

    def links(self) -> Set[Link]:
        """All directed links with non-zero bandwidth (the set ``E`` in §3.4)."""
        capacity = self.link_capacity()
        return {link for link, cap in capacity.items() if cap > 0}

    def link_capacity(self) -> Dict[Link, int]:
        """Per-link effective capacity: the tightest bound over constraints covering it."""
        capacity: Dict[Link, int] = {}
        for constraint in self.constraints:
            for link in constraint.links:
                if link in capacity:
                    capacity[link] = min(capacity[link], constraint.bandwidth)
                else:
                    capacity[link] = constraint.bandwidth
        return capacity

    def out_neighbors(self, node: int) -> List[int]:
        self._check_node(node)
        return sorted({dst for (src, dst) in self.links() if src == node})

    def in_neighbors(self, node: int) -> List[int]:
        self._check_node(node)
        return sorted({src for (src, dst) in self.links() if dst == node})

    def degree(self, node: int) -> int:
        return len(self.out_neighbors(node))

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self.links()

    def bandwidth_between(self, src: int, dst: int) -> int:
        """Chunks per round that may flow on the direct link ``src -> dst`` (0 if absent)."""
        return self.link_capacity().get((src, dst), 0)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_link(self, src: int, dst: int, bandwidth: int = 1, name: str = "") -> None:
        """Add a dedicated point-to-point constraint for one directed link."""
        self._check_node(src)
        self._check_node(dst)
        self.constraints.append(
            BandwidthConstraint(frozenset({(src, dst)}), bandwidth, name or f"{src}->{dst}")
        )

    def add_shared_constraint(
        self, links: Iterable[Link], bandwidth: int, name: str = ""
    ) -> None:
        """Add a constraint bounding the total traffic over a set of links."""
        link_set = frozenset(links)
        for (src, dst) in link_set:
            self._check_node(src)
            self._check_node(dst)
        self.constraints.append(BandwidthConstraint(link_set, bandwidth, name))

    def reversed(self) -> "Topology":
        """Return the topology with every link direction flipped.

        Used by the combining-collective reduction (Section 3.5): a Reduce
        algorithm is obtained by inverting a Broadcast algorithm *on the
        reversed topology*.
        """
        reversed_constraints = [
            BandwidthConstraint(
                frozenset((dst, src) for (src, dst) in c.links),
                c.bandwidth,
                c.name + "_rev" if c.name else "",
            )
            for c in self.constraints
        ]
        return Topology(
            name=self.name + "_reversed",
            num_nodes=self.num_nodes,
            constraints=reversed_constraints,
            alpha=self.alpha,
            beta=self.beta,
            link_latency={(d, s): v for (s, d), v in self.link_latency.items()},
            link_beta_scale={(d, s): v for (s, d), v in self.link_beta_scale.items()},
            provenance=dict(self.provenance),
        )

    def is_symmetric(self) -> bool:
        """True when every link has a same-capacity reverse link."""
        capacity = self.link_capacity()
        return all(capacity.get((dst, src)) == cap for (src, dst), cap in capacity.items())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human readable description (used by examples)."""
        lines = [f"Topology {self.name!r}: {self.num_nodes} nodes"]
        capacity = self.link_capacity()
        for (src, dst) in sorted(capacity):
            lines.append(f"  {src} -> {dst}  bandwidth {capacity[(src, dst)]} chunk(s)/round")
        shared = [c for c in self.constraints if len(c.links) > 1]
        if shared:
            lines.append("  shared constraints:")
            for c in shared:
                links = ", ".join(f"{s}->{d}" for (s, d) in sorted(c.links))
                lines.append(f"    [{links}] <= {c.bandwidth}/round ({c.name})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly serialization."""
        data = {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "alpha": self.alpha,
            "beta": self.beta,
            "constraints": [
                {
                    "links": sorted(list(c.links)),
                    "bandwidth": c.bandwidth,
                    "name": c.name,
                }
                for c in self.constraints
            ],
        }
        # Cost overrides and provenance are optional extras: omit them when
        # empty so documents produced before they existed stay byte-stable.
        if self.link_latency:
            data["link_latency"] = [
                [src, dst, value] for (src, dst), value in sorted(self.link_latency.items())
            ]
        if self.link_beta_scale:
            data["link_beta_scale"] = [
                [src, dst, value]
                for (src, dst), value in sorted(self.link_beta_scale.items())
            ]
        if self.provenance:
            data["provenance"] = dict(self.provenance)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        return cls(
            name=data["name"],
            num_nodes=data["num_nodes"],
            alpha=data.get("alpha", 5e-6),
            beta=data.get("beta", 1.0 / 25e9),
            constraints=[
                BandwidthConstraint(
                    frozenset(tuple(link) for link in entry["links"]),
                    entry["bandwidth"],
                    entry.get("name", ""),
                )
                for entry in data.get("constraints", [])
            ],
            link_latency={
                (int(src), int(dst)): float(value)
                for src, dst, value in data.get("link_latency", [])
            },
            link_beta_scale={
                (int(src), int(dst)): float(value)
                for src, dst, value in data.get("link_beta_scale", [])
            },
            provenance=dict(data.get("provenance", {})),
        )
