"""Latency and bandwidth lower bounds used by Pareto-Synthesize (Algorithm 1).

The paper computes two lower bounds before enumerating instances:

* ``a_l`` — the latency lower bound, from the topology diameter.  We use
  the slightly sharper collective-aware version: the largest distance from
  a chunk's source set to a node that must receive it.  For Allgather and
  Broadcast-from-a-central-node this equals the diameter, matching the
  paper's numbers.
* ``b_l`` — the bandwidth lower bound ``R/C``, from the inverse bisection
  bandwidth.  We compute it as the tightest cut bound: for any node set
  ``W``, all chunks that are needed inside ``W`` but only available outside
  must cross into ``W`` through its incoming capacity.  Evaluated over
  single nodes, their complements (what only one node holds must leave
  it: Scatter's root) and (for small P) all balanced bipartitions, this
  recovers the paper's 7/6 for DGX-1 Allgather and 1/3 for 24-chunk
  Alltoall.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from ..collectives import CollectiveSpec, Placement, get_collective
from ..topology import Topology, shortest_path_lengths
from ..topology.analysis import cut_capacity


class BoundsError(Exception):
    """Raised when a bound cannot be computed (e.g. unreachable node)."""


def latency_lower_bound(
    topology: Topology, precondition: Placement, postcondition: Placement
) -> int:
    """Minimum number of steps any algorithm needs for this pre/post pair."""
    distances = shortest_path_lengths(topology)
    sources: Dict[int, List[int]] = {}
    for (chunk, node) in precondition:
        sources.setdefault(chunk, []).append(node)
    worst = 0
    for (chunk, node) in postcondition:
        chunk_sources = sources.get(chunk)
        if not chunk_sources:
            raise BoundsError(f"chunk {chunk} required at node {node} but has no source")
        best = None
        for src in chunk_sources:
            d = distances.get(src, {}).get(node)
            if d is not None and (best is None or d < best):
                best = d
        if best is None:
            raise BoundsError(
                f"chunk {chunk} cannot reach node {node} on topology {topology.name!r}"
            )
        worst = max(worst, best)
    return max(worst, 1)


@dataclass(frozen=True)
class Cut:
    """One directed cut: ``chunks`` must enter ``part`` over ``capacity`` per round."""

    part: FrozenSet[int]
    #: Chunks some node of ``part`` needs and no node of ``part`` holds initially.
    chunks: int
    #: Chunks per round over the links from outside ``part`` into it.
    capacity: int

    def refutes(self, rounds: int) -> bool:
        """No schedule of ``rounds`` rounds moves ``chunks`` across this cut."""
        return self.chunks > self.capacity * rounds

    def describe(self, rounds: int) -> str:
        return (
            f"{self.chunks} chunks must enter nodes {sorted(self.part)}, whose links "
            f"carry {self.capacity} per round x {rounds} rounds = {self.capacity * rounds}"
        )

    def to_dict(self) -> dict:
        return {"part": sorted(self.part), "chunks": self.chunks, "capacity": self.capacity}

    @classmethod
    def from_dict(cls, data: dict) -> "Cut":
        return cls(frozenset(data["part"]), int(data["chunks"]), int(data["capacity"]))


_Cuts = Tuple[Tuple[FrozenSet[int], int], ...]


def _with_capacity(topology: Topology, parts) -> _Cuts:
    return tuple((part, cut_capacity(topology, part)) for part in parts)


def _node_cuts(topology: Topology) -> _Cuts:
    """Each node's in-cut ``{n}``, then each node's out-cut (everything but ``n``)."""
    everyone = frozenset(topology.nodes())
    singles = [frozenset({n}) for n in topology.nodes()]
    return _with_capacity(topology, singles + [everyone - part for part in singles])


def _balanced_cuts(topology: Topology) -> _Cuts:
    """Both sides of every balanced bipartition."""
    nodes = list(topology.nodes())
    everyone = frozenset(nodes)
    return _with_capacity(topology, (
        part
        for subset in combinations(nodes, len(nodes) // 2)
        for part in (frozenset(subset), everyone - frozenset(subset))
    ))


def iter_cuts(
    topology: Topology,
    precondition: Placement,
    postcondition: Placement,
    bipartition_limit: int = 0,
) -> Iterator[Cut]:
    """Every considered cut that at least one chunk must cross.

    Always each single node's in-cut (``{n}``) and out-cut (everything but
    ``n``: what only ``n`` holds must leave it); with ``P <=
    bipartition_limit`` also both sides of every balanced bipartition.
    The synthesis encoder refutes instances with the single-node cuts
    before emitting a formula; :func:`bandwidth_lower_bound` takes the
    tightest ratio over all of them.

    The node sets and their capacities are facts of the topology
    (:meth:`~repro.topology.Topology.fact`: enumerated once, whoever asks),
    and the placements are read once: chunks held and needed by the same
    nodes cross the same cuts, so each cut is judged per such class.
    """
    cuts = topology.fact(_node_cuts)
    if 2 <= topology.num_nodes <= bipartition_limit:
        cuts += topology.fact(_balanced_cuts)
    holders: Dict[int, Set[int]] = {}
    for (chunk, node) in precondition:
        holders.setdefault(chunk, set()).add(node)
    needers: Dict[int, Set[int]] = {}
    for (chunk, node) in postcondition:
        needers.setdefault(chunk, set()).add(node)
    classes = Counter(
        (frozenset(holders.get(chunk, ())), frozenset(nodes))
        for chunk, nodes in needers.items()
    )
    for part, capacity in cuts:
        chunks = sum(
            count
            for (held, needed), count in classes.items()
            if part.isdisjoint(held) and not part.isdisjoint(needed)
        )
        if chunks:
            yield Cut(part, chunks, capacity)


def bandwidth_lower_bound(
    topology: Topology,
    precondition: Placement,
    postcondition: Placement,
    chunks_per_node: int,
) -> Fraction:
    """Lower bound on the bandwidth cost ``R / C``.

    For every considered node set ``W`` (on up to 10 nodes, every balanced
    bipartition besides the single-node cuts): at least ``needed(W)`` chunks must
    enter ``W`` and at most ``cap_in(W)`` chunks can enter per round, so
    ``R >= needed(W) / cap_in(W)`` and hence ``R / C >= needed(W) / (cap_in(W) * C)``.
    The ratio is invariant under scaling the per-node chunk count, so the
    bound computed for one instance applies to all chunk granularities.
    """
    if chunks_per_node <= 0:
        raise BoundsError("chunks_per_node must be positive")
    chunks, capacity = 0, 1  # the tightest ratio so far, compared by cross-multiplication
    for cut in iter_cuts(topology, precondition, postcondition, bipartition_limit=10):
        if cut.capacity == 0:
            raise BoundsError(
                f"nodes {sorted(cut.part)} need {cut.chunks} chunks but have no incoming links"
            )
        if cut.chunks * capacity > chunks * cut.capacity:
            chunks, capacity = cut.chunks, cut.capacity
    return Fraction(chunks, capacity * chunks_per_node)


def lower_bounds(
    collective: str, topology: Topology, root: int = 0
) -> Tuple[int, Fraction]:
    """Compute ``(a_l, b_l)`` for a named non-combining collective.

    The (granularity-invariant) bounds are evaluated on the smallest
    balanced instance: ``C = 1``, or ``C = N`` for Alltoall, whose
    transpose places every node's chunks evenly only at multiples of ``N``
    (which is why Pareto-Synthesize probes Alltoall only there).
    """
    spec: CollectiveSpec = get_collective(collective)
    if spec.combining:
        raise BoundsError(
            f"{spec.name} is synthesized via {spec.inverse_of}; compute bounds for that"
        )
    chunks_per_node = topology.num_nodes if spec.name == "Alltoall" else 1
    pre = spec.precondition(topology.num_nodes, chunks_per_node, root)
    post = spec.postcondition(topology.num_nodes, chunks_per_node, root)
    a_l = latency_lower_bound(topology, pre, post)
    b_l = bandwidth_lower_bound(topology, pre, post, chunks_per_node)
    return a_l, b_l
