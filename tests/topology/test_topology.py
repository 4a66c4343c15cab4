"""Unit tests for the Topology model and bandwidth relation."""

import pytest

from repro.topology import (
    BandwidthConstraint,
    Topology,
    TopologyError,
    fully_connected,
    ring,
)


def test_basic_link_addition():
    topo = Topology(name="t", num_nodes=3)
    topo.add_link(0, 1, 2)
    topo.add_link(1, 2, 1)
    assert topo.has_link(0, 1)
    assert not topo.has_link(1, 0)
    assert topo.bandwidth_between(0, 1) == 2
    assert topo.bandwidth_between(1, 2) == 1
    assert topo.bandwidth_between(2, 0) == 0


def test_out_neighbors():
    topo = Topology(name="t", num_nodes=4)
    topo.add_link(0, 1)
    topo.add_link(0, 2)
    topo.add_link(3, 0)
    assert topo.out_neighbors(0) == [1, 2]
    assert topo.out_neighbors(3) == [0]


def test_node_range_checked():
    topo = Topology(name="t", num_nodes=2)
    with pytest.raises(TopologyError):
        topo.add_link(0, 5)
    with pytest.raises(TopologyError):
        topo.out_neighbors(7)


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        Topology(
            name="t",
            num_nodes=2,
            constraints=[BandwidthConstraint(frozenset({(1, 1)}), 1)],
        )


def test_negative_bandwidth_rejected():
    with pytest.raises(TopologyError):
        BandwidthConstraint(frozenset({(0, 1)}), -1)


def test_zero_node_topology_rejected():
    with pytest.raises(TopologyError):
        Topology(name="t", num_nodes=0)


def test_shared_constraint_capacity():
    topo = Topology(name="t", num_nodes=3)
    topo.add_link(0, 1, 3)
    topo.add_link(0, 2, 3)
    topo.add_shared_constraint([(0, 1), (0, 2)], 1)
    # The shared constraint tightens the per-link capacity view.
    assert topo.bandwidth_between(0, 1) == 1
    assert topo.bandwidth_between(0, 2) == 1


def test_reversed_topology():
    topo = Topology(name="t", num_nodes=3)
    topo.add_link(0, 1, 2)
    topo.add_link(1, 2, 1)
    rev = topo.reversed()
    assert rev.has_link(1, 0)
    assert rev.has_link(2, 1)
    assert not rev.has_link(0, 1)
    assert rev.bandwidth_between(1, 0) == 2
    assert rev.num_nodes == 3


def test_symmetry_detection():
    assert ring(4).is_symmetric()
    asym = Topology(name="a", num_nodes=2)
    asym.add_link(0, 1, 1)
    assert not asym.is_symmetric()


def test_links_excludes_zero_bandwidth():
    topo = Topology(name="t", num_nodes=2)
    topo.add_link(0, 1, 0)
    assert topo.links() == set()


def test_describe_mentions_links():
    topo = ring(3)
    text = topo.describe()
    assert "0 -> 1" in text
    assert "3 nodes" in text


def test_serialization_roundtrip():
    topo = fully_connected(3)
    topo.add_shared_constraint([(0, 1), (0, 2)], 1)
    data = topo.to_dict()
    restored = Topology.from_dict(data)
    assert restored.num_nodes == topo.num_nodes
    assert restored.link_capacity() == topo.link_capacity()
    assert restored.name == topo.name
