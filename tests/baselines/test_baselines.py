"""Tests for the NCCL/RCCL baseline schedules (Table 3)."""

import pytest

from repro.baselines import (
    RingError,
    bfs_tree,
    nccl_allgather,
    nccl_allreduce,
    nccl_baseline,
    nccl_broadcast,
    nccl_reduce,
    nccl_reducescatter,
    nccl_table3,
    pipelined_broadcast,
    rccl_allgather,
    rccl_allreduce,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
    single_ring,
    tree_broadcast,
    tree_reduce,
)
from repro.topology import amd_z52, dgx1, ring


class TestTable3Signatures:
    """The baselines must land exactly on the (C, S, R) rows of Table 3."""

    def test_nccl_allgather_signature(self):
        assert nccl_allgather().signature() == (6, 7, 7)

    def test_nccl_reducescatter_signature(self):
        algo = nccl_reducescatter()
        assert algo.signature() == (6, 7, 7)
        assert algo.combining

    def test_nccl_allreduce_signature(self):
        assert nccl_allreduce().signature() == (48, 14, 14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_nccl_broadcast_family(self, m):
        assert nccl_broadcast(m).signature() == (6 * m, 6 + m, 6 + m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_nccl_reduce_family(self, m):
        algo = nccl_reduce(m)
        assert algo.signature() == (6 * m, 6 + m, 6 + m)
        assert algo.combining

    def test_table3_rows(self):
        rows = nccl_table3()
        assert {(r.collective, r.chunks, r.steps, r.rounds) for r in rows} == {
            ("Allgather/Reducescatter", 6, 7, 7),
            ("Allreduce", 48, 14, 14),
            ("Broadcast/Reduce", 6, 7, 7),
        }

    def test_rccl_signatures(self):
        assert rccl_allgather().signature() == (2, 7, 7)
        assert rccl_allreduce().signature() == (16, 14, 14)


class TestBaselineValidity:
    """Every baseline must pass the same verification as synthesized algorithms."""

    @pytest.mark.parametrize(
        "builder",
        [nccl_allgather, nccl_allreduce, nccl_reducescatter, rccl_allgather, rccl_allreduce],
    )
    def test_baselines_verify(self, builder):
        builder().verify()

    def test_broadcast_reduce_verify(self):
        nccl_broadcast(2).verify()
        nccl_reduce(2).verify()

    def test_lookup_helpers(self):
        assert nccl_baseline("allgather").signature() == (6, 7, 7)
        assert nccl_baseline("broadcast").signature() == (6, 7, 7)
        with pytest.raises(KeyError):
            nccl_baseline("alltoall")


class TestRingBuilders:
    def test_generic_ring_allgather(self):
        topo = ring(6)
        algo = ring_allgather(topo, single_ring(topo))
        algo.verify()
        assert algo.signature() == (2, 5, 5)

    def test_ring_must_cover_all_nodes(self):
        topo = ring(4)
        with pytest.raises(RingError):
            ring_allgather(topo, [[0, 1, 2]])

    def test_ring_must_use_real_links(self):
        topo = ring(4)
        with pytest.raises(RingError):
            ring_allgather(topo, [[0, 2, 1, 3]])

    def test_reduce_scatter_and_allreduce(self):
        topo = ring(4)
        rings = single_ring(topo)
        ring_reduce_scatter(topo, rings).verify()
        allreduce = ring_allreduce(topo, rings)
        allreduce.verify()
        assert allreduce.signature() == (8, 6, 6)

    def test_pipelined_broadcast_needs_positive_chunks(self):
        topo = ring(4)
        with pytest.raises(RingError):
            pipelined_broadcast(topo, single_ring(topo), chunks_per_ring=0)


class TestTrees:
    def test_bfs_tree_covers_topology(self):
        parents = bfs_tree(dgx1(), 0)
        assert len(parents) == 7
        assert 0 not in parents

    def test_tree_broadcast_on_dgx1_is_two_steps(self):
        algo = tree_broadcast(dgx1())
        algo.verify()
        assert algo.num_steps == 2

    def test_tree_reduce_on_amd(self):
        algo = tree_reduce(amd_z52())
        algo.verify()
        assert algo.combining
