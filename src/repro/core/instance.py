"""SynColl problem instances (Section 3.2 of the paper).

An instance of the synthesis problem is the tuple
``(G, S, R, P, B, pre, post)``:

* ``G`` — global number of chunks,
* ``S`` — number of synchronous steps,
* ``R`` — total number of rounds (so the algorithm is ``(R - S)``-synchronous),
* ``P, B`` — the topology (node count and bandwidth relation),
* ``pre, post`` — chunk placement relations before and after the collective.

:class:`SynCollInstance` carries the topology object itself (which embeds
``P`` and ``B``) plus bookkeeping the evaluation needs: the collective name,
the per-node chunk count ``C`` and the root node for rooted collectives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives import CollectiveSpec, Placement, get_collective
from ..topology import Topology


class InstanceError(Exception):
    """Raised for inconsistent SynColl instances."""


@dataclass(frozen=True)
class SynCollInstance:
    """A fully-specified synthesis problem.

    Use :func:`make_instance` to build one from a collective name and a
    per-node chunk count; the constructor only validates consistency.
    """

    collective: str
    topology: Topology
    num_chunks: int          # G — global chunk count
    steps: int               # S
    rounds: int              # R
    precondition: Placement
    postcondition: Placement
    chunks_per_node: int     # C — per-node chunk count (for the cost model)
    root: int = 0

    def __post_init__(self) -> None:
        if self.num_chunks <= 0:
            raise InstanceError("instance needs at least one chunk")
        if self.steps <= 0:
            raise InstanceError("instance needs at least one step")
        if self.rounds < self.steps:
            raise InstanceError(
                f"rounds ({self.rounds}) must be at least the number of steps "
                f"({self.steps}); every step performs at least one round"
            )
        if self.chunks_per_node <= 0:
            raise InstanceError("per-node chunk count must be positive")
        nodes = self.topology.num_nodes
        for (chunk, node) in self.precondition | self.postcondition:
            if not 0 <= chunk < self.num_chunks:
                raise InstanceError(f"chunk {chunk} out of range [0, {self.num_chunks})")
            if not 0 <= node < nodes:
                raise InstanceError(f"node {node} out of range [0, {nodes})")
        sourced = {chunk for (chunk, _) in self.precondition}
        for chunk in range(self.num_chunks):
            if chunk not in sourced:
                raise InstanceError(f"chunk {chunk} has no source in the precondition")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def synchrony(self) -> int:
        """The k in "k-synchronous": ``R - S``."""
        return self.rounds - self.steps

    def describe(self) -> str:
        return (
            f"{self.collective} on {self.topology.name}: "
            f"C={self.chunks_per_node} (G={self.num_chunks}), "
            f"S={self.steps}, R={self.rounds} (k={self.synchrony})"
        )


def make_instance(
    collective: str,
    topology: Topology,
    chunks_per_node: int,
    steps: int,
    rounds: int,
    root: int = 0,
) -> SynCollInstance:
    """Build a :class:`SynCollInstance` for a named non-combining collective.

    Combining collectives (Reduce, Reducescatter, Allreduce) are not encoded
    directly — synthesize their non-combining counterpart and apply the
    reduction in :mod:`repro.core.combining`.
    """
    spec: CollectiveSpec = get_collective(collective)
    if spec.combining:
        raise InstanceError(
            f"{spec.name} is a combining collective; synthesize {spec.inverse_of} "
            f"and use repro.core.combining to derive it"
        )
    if not spec.root_based and root != 0:
        raise InstanceError(f"{spec.name} has no root, got root={root}")
    num_chunks = spec.global_chunks(topology.num_nodes, chunks_per_node)
    pre = spec.precondition(topology.num_nodes, chunks_per_node, root)
    post = spec.postcondition(topology.num_nodes, chunks_per_node, root)
    return SynCollInstance(
        collective=spec.name,
        topology=topology,
        num_chunks=num_chunks,
        steps=steps,
        rounds=rounds,
        precondition=pre,
        postcondition=post,
        chunks_per_node=chunks_per_node,
        root=root,
    )
