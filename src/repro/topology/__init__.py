"""Topology modeling: nodes, links, bandwidth relations and named machines."""

from .amd_z52 import Z52_RING_ORDER, amd_z52, amd_z52_ring_order
from .analysis import (
    cut_capacity,
    diameter,
    distance,
    is_strongly_connected,
    link_utilization,
    min_node_in_capacity,
    node_in_capacity,
    node_out_capacity,
    shortest_path_lengths,
    to_networkx,
)
from .builders import (
    from_edge_list,
    fully_connected,
    hypercube,
    line,
    ring,
    shared_bus,
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
    "distance",
    "dgx1",
    "dgx1_logical_rings",
    "from_edge_list",
    "fully_connected",
    "hypercube",
    "is_strongly_connected",
    "line",
    "link_utilization",
    "min_node_in_capacity",
    "node_in_capacity",
    "node_out_capacity",
    "ring",
    "shared_bus",
    "shortest_path_lengths",
    "star",
    "to_networkx",
    "torus_2d",
]
