"""The Gigabyte Z52 topology with 8 AMD MI50 GPUs (Figure 3 / Section 5.1.2).

The machine has two xGMI "islands" of four GPUs each; within an island the
GPUs are linked by xGMI, and the islands are joined through PCIe 4.0
switches.  Following Section 5.2.2 the paper does **not** model xGMI's
transparent routing or the simultaneous use of xGMI and PCIe.  Instead it
models the machine as a single bidirectional 8-ring in which GPUs 1 and 5
bridge the two islands over PCIe, with the same per-link chunk rate for
xGMI and PCIe (the PCIe links bound the bisection bandwidth anyway).

The resulting ring order used here is ``0-2-3-1-7-6-4-5-0`` — GPU 1
connects its island (0, 2, 3) to GPU 5's island (4, 6, 7) through the PCIe
bridge 1-7 ... 5-0 closing of the cycle; the exact labeling of intermediate
ring members does not change any measured quantity (diameter 4, incoming
capacity 2/node), and the paper's Figure 3 admits several equivalent ring
embeddings.
"""

from __future__ import annotations

from typing import List, Tuple

from .topology import Topology

#: Ring order of the 8 MI50 GPUs once xGMI islands are bridged over PCIe.
Z52_RING_ORDER: Tuple[int, ...] = (0, 2, 3, 1, 7, 6, 4, 5)

#: Measured PCIe 4.0 x16 bandwidth (bytes/second); xGMI is modeled at the
#: same rate because the PCIe bridges bound any bandwidth-optimal schedule.
PCIE4_BANDWIDTH_BYTES_PER_S = 27e9

#: Per-step fixed overhead, seconds.
Z52_ALPHA_SECONDS = 8e-6


def amd_z52() -> Topology:
    """Build the Gigabyte Z52 (8x MI50) topology as a bidirectional 8-ring."""
    topo = Topology(
        name="amd_z52", num_nodes=8,
        alpha=Z52_ALPHA_SECONDS, beta=1.0 / PCIE4_BANDWIDTH_BYTES_PER_S,
    )
    order = Z52_RING_ORDER
    for i, node in enumerate(order):
        nxt = order[(i + 1) % len(order)]
        topo.add_link(node, nxt, bandwidth=1, name=f"link_{node}_{nxt}")
        topo.add_link(nxt, node, bandwidth=1, name=f"link_{nxt}_{node}")
    return topo


def amd_z52_ring_order() -> List[int]:
    """The ring order used to build :func:`amd_z52` (useful for baselines)."""
    return list(Z52_RING_ORDER)
