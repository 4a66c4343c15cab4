"""Topology modeling: nodes, links, bandwidth relations and named machines."""

from .amd_z52 import Z52_RING_ORDER, amd_z52, amd_z52_ring_order
from .analysis import (
    cut_capacity,
    diameter,
    is_strongly_connected,
    shortest_path_lengths,
)
from .builders import (
    fully_connected,
    hypercube,
    line,
    ring,
    star,
    torus_2d,
)
from .dgx1 import DOUBLE_NVLINK_CYCLE, SINGLE_NVLINK_CYCLE, dgx1, dgx1_logical_rings
from .topology import (
    DEFAULT_LINK_LATENCY_S,
    BandwidthConstraint,
    Link,
    Topology,
    TopologyError,
)

__all__ = [
    "BandwidthConstraint",
    "DEFAULT_LINK_LATENCY_S",
    "DOUBLE_NVLINK_CYCLE",
    "Link",
    "SINGLE_NVLINK_CYCLE",
    "Topology",
    "TopologyError",
    "Z52_RING_ORDER",
    "amd_z52",
    "amd_z52_ring_order",
    "cut_capacity",
    "diameter",
    "dgx1",
    "dgx1_logical_rings",
    "fully_connected",
    "hypercube",
    "is_strongly_connected",
    "line",
    "ring",
    "shortest_path_lengths",
    "star",
    "torus_2d",
]
