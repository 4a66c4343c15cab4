"""Tests for the synthetic topology constructors."""

import pytest

from repro.topology import (
    Topology,
    TopologyError,
    diameter,
    fully_connected,
    hypercube,
    is_strongly_connected,
    line,
    ring,
    star,
    torus_2d,
)


def test_ring_structure():
    topo = ring(5)
    assert topo.num_nodes == 5
    for node in range(5):
        assert topo.has_link(node, (node + 1) % 5)
        assert topo.has_link((node + 1) % 5, node)
    assert diameter(topo) == 2


def test_ring_too_small():
    with pytest.raises(TopologyError):
        ring(1)


def test_line_structure():
    topo = line(4)
    assert topo.has_link(0, 1) and topo.has_link(1, 0)
    assert not topo.has_link(0, 3)
    assert diameter(topo) == 3


def test_star_structure():
    topo = star(5)
    assert all(topo.has_link(0, n) and topo.has_link(n, 0) for n in range(1, 5))
    assert not topo.has_link(1, 2)
    assert diameter(topo) == 2


def test_fully_connected():
    topo = fully_connected(4)
    assert len(topo.links()) == 12
    assert diameter(topo) == 1


def test_hypercube():
    topo = hypercube(3)
    assert topo.num_nodes == 8
    assert diameter(topo) == 3
    # Every node has degree = dimensions.
    assert all(len(topo.out_neighbors(n)) == 3 for n in range(8))


def test_torus():
    topo = torus_2d(3, 3)
    assert topo.num_nodes == 9
    assert is_strongly_connected(topo)
    assert all(len(topo.out_neighbors(n)) == 4 for n in range(9))


def test_torus_too_small():
    with pytest.raises(TopologyError):
        torus_2d(1, 5)


def test_topology_from_links():
    topo = Topology(name="tri", num_nodes=3)
    for src, dst, bandwidth in ((0, 1, 2), (1, 2, 1), (2, 0, 1)):
        topo.add_link(src, dst, bandwidth)
    assert topo.name == "tri"
    assert topo.bandwidth_between(0, 1) == 2
    assert is_strongly_connected(topo)
    assert not topo.is_symmetric()
