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
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Tuple, TypeVar

T = TypeVar("T")

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


def _link_capacity(topology: "Topology") -> Mapping[Link, int]:
    capacity: Dict[Link, int] = {}
    for constraint in topology.constraints:
        bandwidth = constraint.bandwidth
        for link in constraint.links:
            if link not in capacity or bandwidth < capacity[link]:
                capacity[link] = bandwidth
    return MappingProxyType(capacity)


def _links(topology: "Topology") -> FrozenSet[Link]:
    return frozenset(link for link, cap in topology.link_capacity().items() if cap > 0)


def _out_neighbors(topology: "Topology") -> Tuple[Tuple[int, ...], ...]:
    """Per node, the sorted nodes its links lead to."""
    out_sets: List[set] = [set() for _ in topology.nodes()]
    for (src, dst) in topology.links():
        out_sets[src].add(dst)
    return tuple(tuple(sorted(nodes)) for nodes in out_sets)


@dataclass
class Topology:
    """A communication topology.

    What the bandwidth relation determines — per-link capacities, the link
    set, neighbour lists and whatever else :meth:`fact` is asked for — is
    derived on first use and remembered until ``constraints`` (or
    ``num_nodes``) change, however they change.

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

    # The memo behind :meth:`fact`: ``((num_nodes, constraints), {compute:
    # value})``.  Not a dataclass field: ``==``, ``repr``, ``replace`` and
    # ``asdict`` never see it, and ``__getstate__`` keeps it out of copies
    # and pickles (a pool's workers derive their own).
    _facts = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_facts", None)
        return state

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

    def fact(self, compute: Callable[["Topology"], T]) -> T:
        """``compute(self)``, computed once per state of the bandwidth relation.

        For what is derived from ``(num_nodes, constraints)`` alone: the
        link structure below, cut capacities, a fingerprint payload.  The
        state the memo was filled under is compared with the live one on
        every call — identity per constraint, in C, on the usual path — so
        ``add_link``, ``add_shared_constraint``, an edited or a replaced
        ``constraints`` list are all answered with a fresh computation.
        The value is shared between callers: ``compute`` returns something
        nobody mutates.
        """
        state = (self.num_nodes, tuple(self.constraints))
        memo = self._facts
        if memo is None or memo[0] != state:
            memo = self._facts = (state, {})
        computed = memo[1]
        try:
            return computed[compute]
        except KeyError:
            value = computed[compute] = compute(self)
            return value

    def links(self) -> FrozenSet[Link]:
        """All directed links with non-zero bandwidth (the set ``E`` in §3.4)."""
        return self.fact(_links)

    def link_capacity(self) -> Mapping[Link, int]:
        """Per-link effective capacity: the tightest bound over constraints covering it.

        A read-only view, shared between callers.
        """
        return self.fact(_link_capacity)

    def out_neighbors(self, node: int) -> List[int]:
        self._check_node(node)
        return list(self.fact(_out_neighbors)[node])

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

    def add_shared_constraint(self, links: Iterable[Link], bandwidth: int) -> None:
        """Add a constraint bounding the total traffic over a set of links."""
        link_set = frozenset(links)
        for (src, dst) in link_set:
            self._check_node(src)
            self._check_node(dst)
        self.constraints.append(BandwidthConstraint(link_set, bandwidth))

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
