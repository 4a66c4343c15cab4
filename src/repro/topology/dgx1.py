"""The NVIDIA DGX-1 topology (Figure 1 / Section 5.1.1 / 5.2.1).

The DGX-1 has 8 V100 GPUs connected by NVLink.  The 8 GPUs form two
non-overlapping Hamiltonian cycles:

* ``0-1-4-5-6-7-2-3-0`` where every adjacent pair is connected by **two**
  NVLinks, and
* ``0-2-1-3-6-4-7-5-0`` where every adjacent pair is connected by **one**
  NVLink.

Both cycles are bidirectional, giving each GPU exactly 6 NVLink ports
(2 + 1 in each direction along its two cycles), i.e. an aggregate incoming
capacity of 6 chunks/round per GPU — which is where the paper's 7/6
bandwidth lower bound for Allgather comes from.

Following Section 5.2.1, the bandwidth relation contains one point-to-point
entry per connected GPU pair: ``({(n, n')}, 2)`` for pairs on the
double-NVLink cycle and ``({(n, n')}, 1)`` for pairs on the single-NVLink
cycle.  PCIe links to the host CPUs are not modeled (the paper ignores
them due to the NVLink/PCIe bandwidth disparity).
"""

from __future__ import annotations

from typing import List, Tuple

from .topology import Topology

#: Hamiltonian cycle whose edges carry two NVLinks each.
DOUBLE_NVLINK_CYCLE: Tuple[int, ...] = (0, 1, 4, 5, 6, 7, 2, 3)

#: Hamiltonian cycle whose edges carry a single NVLink each.
SINGLE_NVLINK_CYCLE: Tuple[int, ...] = (0, 2, 1, 3, 6, 4, 7, 5)

#: Measured NVLink bandwidth per link (bytes/second) used for the cost model.
NVLINK_BANDWIDTH_BYTES_PER_S = 25e9

#: Per-step fixed overhead (kernel launch / synchronization), seconds.
DGX1_ALPHA_SECONDS = 5e-6


def _cycle_edges(cycle: Tuple[int, ...]) -> List[Tuple[int, int]]:
    edges = []
    for i, node in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        edges.append((node, nxt))
        edges.append((nxt, node))
    return edges


def dgx1() -> Topology:
    """Build the DGX-1 NVLink topology.

    Its (alpha, beta) cost model is the per-step latency and the per-byte
    time of a single NVLink.
    """
    topo = Topology(
        name="dgx1", num_nodes=8,
        alpha=DGX1_ALPHA_SECONDS, beta=1.0 / NVLINK_BANDWIDTH_BYTES_PER_S,
    )
    for (src, dst) in _cycle_edges(DOUBLE_NVLINK_CYCLE):
        topo.add_link(src, dst, bandwidth=2, name=f"nvlink2_{src}_{dst}")
    for (src, dst) in _cycle_edges(SINGLE_NVLINK_CYCLE):
        topo.add_link(src, dst, bandwidth=1, name=f"nvlink1_{src}_{dst}")
    return topo


def dgx1_logical_rings() -> List[List[int]]:
    """The 6 logical single-NVLink rings NCCL uses on a DGX-1 (Section 2.4).

    The double-NVLink cycle contributes 2 rings per direction (4 total) and
    the single-NVLink cycle 1 per direction (2 total).
    """
    rings: List[List[int]] = []
    forward_double = list(DOUBLE_NVLINK_CYCLE)
    backward_double = list(reversed(DOUBLE_NVLINK_CYCLE))
    forward_single = list(SINGLE_NVLINK_CYCLE)
    backward_single = list(reversed(SINGLE_NVLINK_CYCLE))
    rings.append(forward_double)
    rings.append(forward_double)
    rings.append(backward_double)
    rings.append(backward_double)
    rings.append(forward_single)
    rings.append(backward_single)
    return rings
