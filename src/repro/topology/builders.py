"""Constructors for common synthetic topologies.

These are the topologies used throughout the tests, the examples and the
paper's motivating discussion (the 4-node ring of Figure 2, fully-connected
groups, trees/stars, hypercubes and tori from the related-work algorithms).
All constructors return a :class:`~repro.topology.topology.Topology` whose
bandwidth relation consists of point-to-point constraints unless stated
otherwise.
"""

from __future__ import annotations

from .topology import Topology, TopologyError


def ring(num_nodes: int, bandwidth: int = 1) -> Topology:
    """A ring of ``num_nodes`` nodes.

    Each adjacent pair gets links in both directions, as in Figure 2 of the
    paper.
    """
    if num_nodes < 2:
        raise TopologyError("a ring needs at least 2 nodes")
    topo = Topology(name=f"ring{num_nodes}", num_nodes=num_nodes, alpha=5e-6, beta=1.0 / 25e9)
    for node in range(num_nodes):
        nxt = (node + 1) % num_nodes
        topo.add_link(node, nxt, bandwidth)
        topo.add_link(nxt, node, bandwidth)
    return topo


def line(num_nodes: int, bandwidth: int = 1) -> Topology:
    """A bidirectional path graph."""
    if num_nodes < 2:
        raise TopologyError("a line needs at least 2 nodes")
    topo = Topology(name=f"line{num_nodes}", num_nodes=num_nodes)
    for node in range(num_nodes - 1):
        topo.add_link(node, node + 1, bandwidth)
        topo.add_link(node + 1, node, bandwidth)
    return topo


def star(num_nodes: int, bandwidth: int = 1) -> Topology:
    """A star with node 0 connected bidirectionally to every other node."""
    if num_nodes < 2:
        raise TopologyError("a star needs at least 2 nodes")
    topo = Topology(name=f"star{num_nodes}", num_nodes=num_nodes)
    for node in range(1, num_nodes):
        topo.add_link(0, node, bandwidth)
        topo.add_link(node, 0, bandwidth)
    return topo


def fully_connected(num_nodes: int, bandwidth: int = 1) -> Topology:
    """A complete directed graph (every ordered pair is a link)."""
    if num_nodes < 2:
        raise TopologyError("a fully connected topology needs at least 2 nodes")
    topo = Topology(name=f"fc{num_nodes}", num_nodes=num_nodes)
    for src in range(num_nodes):
        for dst in range(num_nodes):
            if src != dst:
                topo.add_link(src, dst, bandwidth)
    return topo


def hypercube(dimensions: int, bandwidth: int = 1) -> Topology:
    """A binary hypercube with ``2 ** dimensions`` nodes."""
    if dimensions < 1:
        raise TopologyError("hypercube needs at least one dimension")
    num_nodes = 1 << dimensions
    topo = Topology(name=f"hypercube{dimensions}", num_nodes=num_nodes)
    for node in range(num_nodes):
        for bit in range(dimensions):
            peer = node ^ (1 << bit)
            topo.add_link(node, peer, bandwidth)
    return topo


def torus_2d(rows: int, cols: int, bandwidth: int = 1) -> Topology:
    """A 2-D torus (wrap-around mesh); node (r, c) has index ``r * cols + c``."""
    if rows < 2 or cols < 2:
        raise TopologyError("torus needs at least 2x2 nodes")
    topo = Topology(name=f"torus{rows}x{cols}", num_nodes=rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            for peer in (right, down):
                topo.add_link(node, peer, bandwidth)
                topo.add_link(peer, node, bandwidth)
    return topo
