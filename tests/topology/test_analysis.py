"""Tests for topology analysis: distances, diameter, capacities, bisection."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.bounds import BoundsError, lower_bounds
from repro.topology import (
    TopologyError,
    Topology,
    cut_capacity,
    diameter,
    fully_connected,
    hypercube,
    is_strongly_connected,
    line,
    ring,
    shortest_path_lengths,
    star,
)


def test_shortest_paths_on_line():
    topo = line(4)
    dist = shortest_path_lengths(topo)
    assert dist[0][3] == 3
    assert dist[3][0] == 3
    assert dist[1][2] == 1


def test_unreachable_distance_is_none():
    topo = Topology(name="t", num_nodes=3)
    topo.add_link(0, 1)
    assert 0 not in shortest_path_lengths(topo)[1]
    assert not is_strongly_connected(topo)


def test_diameter_values():
    assert diameter(fully_connected(5)) == 1
    assert diameter(ring(8)) == 4
    assert diameter(hypercube(4)) == 4
    assert diameter(star(6)) == 2


def test_diameter_requires_strong_connectivity():
    topo = Topology(name="t", num_nodes=2)
    topo.add_link(0, 1)
    with pytest.raises(TopologyError):
        diameter(topo)


def test_cut_capacity():
    topo = ring(4)
    # Cutting {0, 1} from {2, 3}: links 3->0 and 2->1 enter the part.
    assert cut_capacity(topo, {0, 1}) == 2


def test_allgather_bandwidth_bound_ring():
    # Ring of 8, capacity 2 in per node: (8-1)/2.
    assert lower_bounds("Allgather", ring(8)) == (4, Fraction(7, 2))


def test_allgather_bounds_need_a_path_in():
    topo = Topology(name="t", num_nodes=2)
    topo.add_link(0, 1)
    with pytest.raises(BoundsError):
        lower_bounds("Allgather", topo)


def test_latency_lower_bound_equals_diameter():
    for n in (2, 5, 6, 9):
        latency, _ = lower_bounds("Allgather", ring(n))
        assert latency == diameter(ring(n))


@given(n=st.integers(2, 9))
def test_ring_diameter_formula(n):
    assert diameter(ring(n)) == n // 2


@given(n=st.integers(2, 16))
def test_fully_connected_bisection(n):
    topo = fully_connected(n)
    # Each node can receive from n-1 peers.
    assert all(cut_capacity(topo, {node}) == n - 1 for node in topo.nodes())


@given(dims=st.integers(1, 4))
def test_hypercube_properties(dims):
    topo = hypercube(dims)
    assert diameter(topo) == dims
    assert all(cut_capacity(topo, {node}) == dims for node in topo.nodes())


def test_ring_distances_go_the_short_way_round():
    dist = shortest_path_lengths(ring(6))
    assert dist[0][3] == 3
    assert dist[0][5] == 1


def test_single_node_cut_is_its_in_capacity():
    # Two links of bandwidth 3 enter every node of a bidirectional ring.
    topo = ring(4, bandwidth=3)
    assert all(cut_capacity(topo, {node}) == 6 for node in topo.nodes())


def test_link_capacities_of_a_ring():
    capacity = ring(5, bandwidth=2).link_capacity()
    assert len(capacity) == 10
    assert set(capacity.values()) == {2}
