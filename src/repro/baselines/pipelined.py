"""Pipelined ring Broadcast / Reduce baselines (NCCL's approach, Table 3).

For Broadcast and Reduce, NCCL pipelines chunks along each logical ring:
with ``m`` chunks per ring and 6 rings on the DGX-1 the schedule uses
``C = 6 m`` chunks and ``S = R = 6 + m`` steps, approaching bandwidth
optimality as ``m`` grows (the cost is ``(6+m)·alpha + (6+m)/(6m)·L·beta``).

The construction treats each ring as a path rooted at the broadcast root:
the root injects a new chunk every step and every other node forwards the
chunk it received in the previous step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..collectives import get_collective
from ..core.algorithm import Algorithm, Send, Step
from ..core.combining import invert_algorithm
from ..topology import Topology
from .ring import RingError, _check_rings


def pipelined_broadcast(
    topology: Topology,
    rings: Sequence[Sequence[int]],
    chunks_per_ring: int,
    name: Optional[str] = None,
) -> Algorithm:
    """Pipelined multi-ring Broadcast from node 0 with ``m = chunks_per_ring``.

    Produces ``C = m * len(rings)`` chunks and ``S = R = (P - 1) + (m - 1)``
    steps — i.e. the ``(6m, 6+m, 6+m)`` family of Table 3 when P = 8 and
    6 rings are used.
    """
    if chunks_per_ring < 1:
        raise RingError("need at least one chunk per ring")
    _check_rings(topology, rings)
    num_nodes = topology.num_nodes
    num_rings = len(rings)
    num_chunks = chunks_per_ring * num_rings
    root = 0
    spec = get_collective("Broadcast")
    pre = spec.precondition(num_nodes, num_chunks, root)
    post = spec.postcondition(num_nodes, num_chunks, root)

    num_steps = (num_nodes - 1) + (chunks_per_ring - 1)
    sends_by_step: List[List[Send]] = [[] for _ in range(num_steps)]
    for ring_index, ring_order in enumerate(rings):
        # Rotate the ring so the root is first; the broadcast then travels
        # along the P-1 hops of the ring-as-path.
        start = list(ring_order).index(root)
        path = [ring_order[(start + i) % num_nodes] for i in range(num_nodes)]
        for k in range(chunks_per_ring):
            chunk = ring_index * chunks_per_ring + k
            for hop in range(num_nodes - 1):
                step = k + hop
                sends_by_step[step].append(
                    Send(chunk=chunk, src=path[hop], dst=path[hop + 1])
                )

    steps = [Step(rounds=1, sends=tuple(sends)) for sends in sends_by_step]
    algorithm = Algorithm(
        name=name
        or f"pipelined_broadcast_{topology.name}_{num_rings}rings_m{chunks_per_ring}",
        collective="Broadcast",
        topology=topology,
        chunks_per_node=num_chunks,
        num_chunks=num_chunks,
        precondition=pre,
        postcondition=post,
        steps=steps,
        combining=False,
        metadata={
            "family": "pipelined_ring",
            "chunks_per_ring": chunks_per_ring,
            "root": root,
        },
    )
    algorithm.verify()
    return algorithm


def pipelined_reduce(
    topology: Topology,
    rings: Sequence[Sequence[int]],
    chunks_per_ring: int,
    name: Optional[str] = None,
) -> Algorithm:
    """Pipelined Reduce — the inversion of the pipelined Broadcast."""
    broadcast = pipelined_broadcast(topology, rings, chunks_per_ring)
    reduce_algorithm = invert_algorithm(
        broadcast,
        collective="Reduce",
        name=name
        or f"pipelined_reduce_{topology.name}_{len(rings)}rings_m{chunks_per_ring}",
    )
    reduce_algorithm.verify()
    return reduce_algorithm
