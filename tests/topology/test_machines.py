"""Tests for the DGX-1 and Gigabyte Z52 machine models (paper Figures 1 and 3)."""

from fractions import Fraction

from repro.core.bounds import lower_bounds
from repro.topology import (
    amd_z52,
    amd_z52_ring_order,
    cut_capacity,
    diameter,
    dgx1,
    dgx1_logical_rings,
    is_strongly_connected,
    shortest_path_lengths,
)


def out_capacity(topology, node):
    return sum(cap for (src, _), cap in topology.link_capacity().items() if src == node)


class TestDGX1:
    def test_eight_gpus(self):
        assert dgx1().num_nodes == 8

    def test_strongly_connected(self):
        assert is_strongly_connected(dgx1())

    def test_diameter_is_two(self):
        # Section 2.5: "the DGX-1 topology has a diameter of 2".
        assert diameter(dgx1()) == 2

    def test_each_gpu_has_six_nvlink_ports(self):
        # 2 NVLinks on the double cycle + 1 on the single cycle, per direction.
        topo = dgx1()
        for gpu in range(8):
            assert cut_capacity(topo, {gpu}) == 6
            assert out_capacity(topo, gpu) == 6

    def test_double_and_single_cycle_bandwidths(self):
        topo = dgx1()
        assert topo.bandwidth_between(0, 1) == 2  # double-NVLink cycle edge
        assert topo.bandwidth_between(0, 2) == 1  # single-NVLink cycle edge
        assert topo.bandwidth_between(0, 6) == 0  # not directly connected

    def test_allgather_bandwidth_lower_bound_is_seven_sixths(self):
        # Section 2.4: any Allgather needs at least 7/6 * L * beta.
        assert lower_bounds("Allgather", dgx1()) == (2, Fraction(7, 6))

    def test_six_logical_rings(self):
        rings = dgx1_logical_rings()
        assert len(rings) == 6
        assert all(len(r) == 8 for r in rings)
        topo = dgx1()
        # Every consecutive pair in every logical ring is a real link.
        for ring_order in rings:
            for i, node in enumerate(ring_order):
                nxt = ring_order[(i + 1) % 8]
                assert topo.has_link(node, nxt)

    def test_symmetric(self):
        assert dgx1().is_symmetric()


class TestAmdZ52:
    def test_eight_gpus(self):
        assert amd_z52().num_nodes == 8

    def test_is_a_ring(self):
        topo = amd_z52()
        for gpu in range(8):
            assert cut_capacity(topo, {gpu}) == 2
            assert out_capacity(topo, gpu) == 2

    def test_diameter_is_four(self):
        assert diameter(amd_z52()) == 4

    def test_ring_order_is_consistent(self):
        topo = amd_z52()
        order = amd_z52_ring_order()
        assert sorted(order) == list(range(8))
        for i, node in enumerate(order):
            nxt = order[(i + 1) % 8]
            assert topo.has_link(node, nxt)
            assert topo.has_link(nxt, node)

    def test_allgather_bandwidth_lower_bound(self):
        # Table 5: the bandwidth-optimal Allgather is (C=2, R=7) => 7/2.
        assert lower_bounds("Allgather", amd_z52()) == (4, Fraction(7, 2))

    def test_symmetric(self):
        assert amd_z52().is_symmetric()

    def test_all_pairs_reachable(self):
        distances = shortest_path_lengths(amd_z52())
        assert all(len(distances[n]) == 8 for n in range(8))
