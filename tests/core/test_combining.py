"""Tests for the combining-collective reduction (inversion, Allreduce composition)."""

import pytest

from repro.baselines import ring_allgather, single_ring
from repro.core import (
    CombiningError,
    allreduce_from_allgather,
    invert_algorithm,
    make_instance,
    synthesize,
)
from repro.topology import Topology, ring, star


def synthesized_allgather(topology, chunks, steps, rounds):
    result = synthesize(make_instance("Allgather", topology, chunks, steps, rounds))
    assert result.is_sat
    return result.algorithm


class TestInversion:
    def test_reducescatter_from_ring_allgather(self):
        allgather = ring_allgather(ring(4), single_ring(ring(4)))
        reducescatter = invert_algorithm(allgather)
        reducescatter.verify()
        assert reducescatter.collective == "Reducescatter"
        assert reducescatter.combining
        assert reducescatter.num_steps == allgather.num_steps
        assert reducescatter.total_rounds == allgather.total_rounds

    def test_reduce_from_synthesized_broadcast(self):
        result = synthesize(make_instance("Broadcast", star(5), 2, 2, 2, root=0))
        assert result.is_sat
        reduce_algo = invert_algorithm(result.algorithm)
        reduce_algo.verify()
        assert reduce_algo.collective == "Reduce"
        # Every contribution ends at the root.
        final = reduce_algo.run()[-1]
        for chunk in range(reduce_algo.num_chunks):
            assert final[(chunk, 0)] == frozenset(range(5))

    def test_inverting_combining_algorithm_rejected(self):
        allgather = ring_allgather(ring(4), single_ring(ring(4)))
        reducescatter = invert_algorithm(allgather)
        with pytest.raises(CombiningError):
            invert_algorithm(reducescatter)

    def test_asymmetric_topology_requires_explicit_target(self):
        asym = Topology(name="asym", num_nodes=3)
        asym.add_link(0, 1)
        asym.add_link(1, 2)
        asym.add_link(2, 0)
        result = synthesize(make_instance("Broadcast", asym, 1, 2, 2, root=0))
        assert result.is_sat
        with pytest.raises(CombiningError):
            invert_algorithm(result.algorithm)
        # Providing the reversed topology works and verifies.
        inverted = invert_algorithm(result.algorithm, target_topology=asym.reversed())
        inverted.verify()

    def test_multi_source_chunk_rejected(self):
        allgather = ring_allgather(ring(4), single_ring(ring(4)))
        # Corrupt the precondition so one chunk has two sources.
        allgather.precondition = frozenset(set(allgather.precondition) | {(0, 1)})
        with pytest.raises(CombiningError):
            invert_algorithm(allgather)


class TestAllreduceComposition:
    def test_allreduce_from_ring_allgather(self):
        topo = ring(4)
        allgather = ring_allgather(topo, single_ring(topo))
        allreduce = allreduce_from_allgather(allgather)
        allreduce.verify()
        assert allreduce.collective == "Allreduce"
        assert allreduce.chunks_per_node == allgather.num_chunks
        assert allreduce.num_steps == 2 * allgather.num_steps
        assert allreduce.total_rounds == 2 * allgather.total_rounds
        # Every node ends with the full reduction of every chunk.
        final = allreduce.run()[-1]
        for chunk in range(allreduce.num_chunks):
            for node in range(4):
                assert final[(chunk, node)] == frozenset(range(4))

    def test_allreduce_from_synthesized_allgather(self):
        allgather = synthesized_allgather(ring(4), 1, 2, 3)
        allreduce = allreduce_from_allgather(allgather)
        allreduce.verify()
        assert allreduce.signature() == (4, 4, 6)

    def test_wrong_collective_rejected(self):
        result = synthesize(make_instance("Broadcast", star(4), 1, 1, 1, root=0))
        with pytest.raises(CombiningError):
            allreduce_from_allgather(result.algorithm)


class TestSynthesizedCombining:
    """Combining collectives come from a synthesized non-combining one."""

    def test_reducescatter_from_synthesized_allgather(self):
        allgather = synthesized_allgather(ring(4), 1, 2, 3)
        reducescatter = invert_algorithm(allgather)
        reducescatter.verify()
        assert reducescatter.collective == "Reducescatter"
        assert reducescatter.signature() == allgather.signature()

    def test_reduce_from_single_step_broadcast(self):
        result = synthesize(make_instance("Broadcast", star(5), 1, 1, 1, root=0))
        assert result.is_sat
        reduce_algo = invert_algorithm(result.algorithm)
        reduce_algo.verify()
        assert reduce_algo.collective == "Reduce"
        assert reduce_algo.signature() == (1, 1, 1)

    @pytest.mark.parametrize("chunks, steps, rounds", [(1, 2, 2), (2, 3, 3)])
    def test_allreduce_doubles_steps_and_rounds(self, chunks, steps, rounds):
        allgather = synthesized_allgather(ring(4), chunks, steps, rounds)
        allreduce = allreduce_from_allgather(allgather)
        allreduce.verify()
        assert allreduce.collective == "Allreduce"
        assert allreduce.signature() == (4 * chunks, 2 * steps, 2 * rounds)

    def test_unsat_allgather_leaves_nothing_to_compose(self):
        result = synthesize(make_instance("Allgather", ring(4), 1, 1, 1))
        assert result.is_unsat
        assert result.algorithm is None
