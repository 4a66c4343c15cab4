"""NCCL and RCCL baseline models (Section 5.3, Table 3).

NCCL 2.7.8 on a DGX-1 implements its collectives with ring algorithms over
the machine's 6 logical single-NVLink rings; RCCL does the same on the
Gigabyte Z52's single physical ring (2 logical rings).  Table 3 summarizes
the schedules:

    Collective                  C     S      R
    Allgather / Reducescatter   6     7      7
    Allreduce                   48    14     14
    Broadcast / Reduce          6m    6+m    6+m

This module instantiates those schedules as real
:class:`~repro.core.algorithm.Algorithm` objects on the corresponding
topology models, so the evaluation harness can lower and simulate them
exactly like SCCL's synthesized algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.algorithm import Algorithm
from ..topology import Topology, amd_z52, amd_z52_ring_order, dgx1, dgx1_logical_rings
from .pipelined import pipelined_broadcast, pipelined_reduce
from .ring import ring_allgather, ring_allreduce, ring_reduce_scatter, single_ring


@dataclass(frozen=True)
class BaselineEntry:
    """One row of Table 3."""

    collective: str
    chunks: int
    steps: int
    rounds: int
    note: str = ""

    def cost(self) -> Tuple[int, int, int]:
        """The uniform ``(steps, rounds, chunks)`` lattice-cost accessor."""
        return (self.steps, self.rounds, self.chunks)


def nccl_allgather(topology: Optional[Topology] = None) -> Algorithm:
    """NCCL's 6-ring Allgather on the DGX-1: (C, S, R) = (6, 7, 7)."""
    topo = topology or dgx1()
    return ring_allgather(topo, dgx1_logical_rings(), name="nccl_allgather_dgx1")


def nccl_reducescatter(topology: Optional[Topology] = None) -> Algorithm:
    """NCCL's ring Reducescatter on the DGX-1 (C = 6 per node, x8 global)."""
    topo = topology or dgx1()
    return ring_reduce_scatter(topo, dgx1_logical_rings(), name="nccl_reducescatter_dgx1")


def nccl_allreduce(topology: Optional[Topology] = None) -> Algorithm:
    """NCCL's ring Allreduce on the DGX-1: (C, S, R) = (48, 14, 14)."""
    topo = topology or dgx1()
    return ring_allreduce(topo, dgx1_logical_rings(), name="nccl_allreduce_dgx1")


def nccl_broadcast(multiplier: int = 1, topology: Optional[Topology] = None) -> Algorithm:
    """NCCL's pipelined ring Broadcast: (C, S, R) = (6m, 6+m, 6+m)."""
    topo = topology or dgx1()
    return pipelined_broadcast(
        topo, dgx1_logical_rings(), chunks_per_ring=multiplier,
        name=f"nccl_broadcast_dgx1_m{multiplier}",
    )


def nccl_reduce(multiplier: int = 1, topology: Optional[Topology] = None) -> Algorithm:
    """NCCL's pipelined ring Reduce: the inversion of the pipelined Broadcast."""
    topo = topology or dgx1()
    return pipelined_reduce(
        topo, dgx1_logical_rings(), chunks_per_ring=multiplier,
        name=f"nccl_reduce_dgx1_m{multiplier}",
    )


def rccl_allgather(topology: Optional[Topology] = None) -> Algorithm:
    """RCCL's ring Allgather on the Gigabyte Z52: (C, S, R) = (2, 7, 7)."""
    topo = topology or amd_z52()
    return ring_allgather(
        topo, single_ring(topo, amd_z52_ring_order()), name="rccl_allgather_amd"
    )


def rccl_allreduce() -> Algorithm:
    """RCCL's ring Allreduce on the Gigabyte Z52: (C, S, R) = (16, 14, 14)."""
    topo = amd_z52()
    return ring_allreduce(
        topo, single_ring(topo, amd_z52_ring_order()), name="rccl_allreduce_amd"
    )


def nccl_table3() -> List[BaselineEntry]:
    """The (C, S, R) rows of Table 3 as data, for the Table 3 benchmark.

    Broadcast and Reduce are the family (6m, 6+m, 6+m); the table lists m=1.
    """
    return [
        BaselineEntry("Allgather/Reducescatter", 6, 7, 7),
        BaselineEntry("Allreduce", 48, 14, 14),
        BaselineEntry("Broadcast/Reduce", 6, 7, 7, note="m=1"),
    ]


def nccl_baseline(collective: str, topology: Optional[Topology] = None) -> Algorithm:
    """Look up the NCCL baseline algorithm for a collective on the DGX-1."""
    builders = {
        "allgather": lambda: nccl_allgather(topology),
        "reducescatter": lambda: nccl_reducescatter(topology),
        "allreduce": lambda: nccl_allreduce(topology),
        "broadcast": lambda: nccl_broadcast(topology=topology),
        "reduce": lambda: nccl_reduce(topology=topology),
    }
    key = collective.lower()
    if key not in builders:
        raise KeyError(
            f"NCCL has no baseline for {collective!r}; it does not implement "
            f"Alltoall, Gather or Scatter (Section 5.4.2)"
        )
    return builders[key]()
