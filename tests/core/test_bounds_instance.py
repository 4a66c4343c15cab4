"""Tests for lower bounds and SynColl instance construction."""

from fractions import Fraction

import pytest

from repro.collectives import get_collective
from repro.core import (
    InstanceError,
    bandwidth_lower_bound,
    iter_cuts,
    latency_lower_bound,
    lower_bounds,
    make_instance,
)
from repro.topology import amd_z52, dgx1, fully_connected, line, ring


class TestLowerBounds:
    def test_dgx1_allgather_bounds_match_paper(self):
        # Section 2.4/2.5: latency bound 2 steps, bandwidth bound 7/6.
        assert lower_bounds("Allgather", dgx1()) == (2, Fraction(7, 6))

    def test_dgx1_alltoall_bandwidth_bound(self):
        # Table 4: bandwidth-optimal Alltoall has R/C = 8/24 = 1/3.
        a_l, b_l = lower_bounds("Alltoall", dgx1())
        assert a_l == 2
        assert b_l == Fraction(1, 3)

    def test_dgx1_broadcast_bound(self):
        a_l, b_l = lower_bounds("Broadcast", dgx1())
        assert a_l == 2
        assert b_l == Fraction(1, 6)

    def test_amd_allgather_bounds_match_table5(self):
        # Table 5: latency-optimal S=4, bandwidth-optimal R/C = 7/2.
        assert lower_bounds("Allgather", amd_z52()) == (4, Fraction(7, 2))

    def test_gather_bound_equals_allgather_on_dgx1(self):
        assert lower_bounds("Gather", dgx1())[1] == Fraction(7, 6)

    @pytest.mark.parametrize("topology", [dgx1(), amd_z52(), ring(6)], ids=lambda t: t.name)
    def test_scatter_bound_equals_gather_on_symmetric_fabrics(self, topology):
        # Scatter is Gather with every send reversed; what the root alone
        # holds must leave it through its out-links (the complement cut).
        assert topology.is_symmetric()
        assert lower_bounds("Scatter", topology) == lower_bounds("Gather", topology)
        assert lower_bounds("Scatter", topology)[1] == lower_bounds("Allgather", topology)[1]

    def test_iter_cuts_covers_in_and_out_cut_of_every_node(self):
        topology = ring(4)
        spec = get_collective("Scatter")
        cuts = list(iter_cuts(topology, spec.precondition(4, 1), spec.postcondition(4, 1)))
        # Each non-root node needs its chunk (in-cut); everything but the
        # root needs the three chunks only the root holds (the root's
        # out-cut).  A part holding the root owes nothing: no cut.
        assert [(sorted(c.part), c.chunks, c.capacity) for c in cuts] == [
            ([1], 1, 2), ([2], 1, 2), ([3], 1, 2), ([1, 2, 3], 3, 2),
        ]
        assert [c.refutes(1) for c in cuts] == [False, False, False, True]

    def test_combining_collective_rejected(self):
        with pytest.raises(Exception):
            lower_bounds("Allreduce", dgx1())

    def test_latency_bound_respects_root_position(self):
        topo = line(4)
        spec = get_collective("Broadcast")
        pre_end = spec.precondition(4, 1, root=0)
        post_end = spec.postcondition(4, 1, root=0)
        assert latency_lower_bound(topo, pre_end, post_end) == 3
        pre_mid = spec.precondition(4, 1, root=1)
        post_mid = spec.postcondition(4, 1, root=1)
        assert latency_lower_bound(topo, pre_mid, post_mid) == 2

    def test_bandwidth_bound_scale_invariance(self):
        topo = ring(6)
        spec = get_collective("Allgather")
        b1 = bandwidth_lower_bound(topo, spec.precondition(6, 1), spec.postcondition(6, 1), 1)
        b3 = bandwidth_lower_bound(topo, spec.precondition(6, 3), spec.postcondition(6, 3), 3)
        assert b1 == b3 == Fraction(5, 2)


class TestInstances:
    def test_make_instance_allgather(self):
        inst = make_instance("Allgather", ring(4), 2, 3, 4)
        assert inst.num_chunks == 8
        assert inst.synchrony == 1
        assert inst.steps == 3
        assert "Allgather" in inst.describe()

    def test_combining_collective_rejected(self):
        with pytest.raises(InstanceError):
            make_instance("Allreduce", ring(4), 1, 2, 2)

    def test_rounds_below_steps_rejected(self):
        with pytest.raises(InstanceError):
            make_instance("Allgather", ring(4), 1, 3, 2)

    def test_zero_chunks_rejected(self):
        with pytest.raises(InstanceError):
            make_instance("Allgather", ring(4), 0, 2, 2)

    def test_broadcast_respects_root(self):
        inst = make_instance("Broadcast", fully_connected(4), 2, 1, 1, root=3)
        assert all(node == 3 for (_, node) in inst.precondition)

    @pytest.mark.parametrize("root", [3, -1])
    @pytest.mark.parametrize("collective", ["Allgather", "Alltoall"])
    def test_rootless_collective_refuses_a_root(self, collective, root):
        with pytest.raises(InstanceError, match=f"{collective} has no root, got root={root}"):
            make_instance(collective, ring(4), 1, 2, 3, root=root)

    def test_precondition_chunks_all_sourced(self):
        inst = make_instance("Alltoall", ring(4), 4, 2, 2)
        chunks_with_source = {c for (c, _) in inst.precondition}
        assert chunks_with_source == set(range(inst.num_chunks))
