"""Tests for Pareto-Synthesize (Algorithm 1) on small topologies."""

from fractions import Fraction

import pytest

from repro.core import ParetoError, candidate_set, pareto_synthesize
from repro.solver import SolveResult
from repro.topology import fully_connected, line, ring, star


class TestCandidateSet:
    def test_orders_by_bandwidth_cost(self):
        candidates = candidate_set(steps=3, k=4, bandwidth_lower=Fraction(7, 6))
        ratios = [Fraction(r, c) for (r, c) in candidates]
        assert ratios == sorted(ratios)
        # All candidates respect the bounds.
        assert all(3 <= r <= 7 for (r, c) in candidates)
        assert all(Fraction(r, c) >= Fraction(7, 6) for (r, c) in candidates)
        # The bandwidth-optimal candidate (7, 6) comes first.
        assert candidates[0] == (7, 6)

    def test_k_zero_single_round_choice(self):
        candidates = candidate_set(steps=2, k=0, bandwidth_lower=Fraction(7, 6))
        assert candidates == [(2, 1)]

    def test_max_chunks_cap(self):
        candidates = candidate_set(steps=2, k=0, bandwidth_lower=Fraction(1, 6), max_chunks=3)
        assert all(c <= 3 for (_, c) in candidates)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ParetoError):
            candidate_set(2, 0, Fraction(0))


class TestRingAllgatherFrontier:
    def test_frontier_on_ring4(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=4)
        assert frontier.latency_lower_bound == 2
        assert frontier.bandwidth_lower_bound == Fraction(3, 2)
        signatures = [p.signature for p in frontier.points]
        # S=2: best k=0 candidate is (R=2, C=1); S=3: (3, 2) hits the 3/2 bound.
        assert (1, 2, 2) in signatures
        assert (2, 3, 3) in signatures
        assert frontier.points[0].latency_optimal
        assert frontier.points[-1].bandwidth_optimal
        for point in frontier.points:
            assert point.algorithm is not None
            point.algorithm.verify()

    def test_stops_at_bandwidth_optimal(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=8)
        assert frontier.points[-1].bandwidth_optimal
        assert max(p.steps for p in frontier.points) == 3

    def test_k_one_latency_point_improves_bandwidth(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=1, max_steps=3)
        # With one extra round the 2-step algorithm reaches R/C = 3/2.
        assert (2, 2, 3) in [p.signature for p in frontier.points]
        assert frontier.points[0].bandwidth_optimal and frontier.points[0].latency_optimal

    def test_table_rows_shape(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=3)
        rows = frontier.table_rows()
        assert all({"collective", "C", "S", "R", "optimality", "time_s"} <= set(row) for row in rows)

    def test_best_for_size_switches_algorithm(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=1, max_steps=4)
        small = frontier.best_for_size(64, alpha=5e-6, beta=4e-11)
        large = frontier.best_for_size(1 << 30, alpha=5e-6, beta=4e-11)
        assert small.steps <= large.steps
        assert large.algorithm.bandwidth_cost <= small.algorithm.bandwidth_cost


class TestOtherCollectives:
    def test_broadcast_on_star_is_immediately_optimal(self):
        frontier = pareto_synthesize("Broadcast", star(5), k=0, max_steps=3)
        assert frontier.points
        first = frontier.points[0]
        assert first.latency_optimal
        assert first.steps == 1

    def test_gather_frontier_on_line(self):
        frontier = pareto_synthesize("Gather", line(3), k=0, max_steps=4)
        assert frontier.points
        for point in frontier.points:
            point.algorithm.verify()

    def test_alltoall_on_fully_connected(self):
        frontier = pareto_synthesize("Alltoall", fully_connected(3), k=0, max_steps=3)
        assert frontier.points
        assert frontier.points[0].steps == 1

    def test_alltoall_probes_only_multiples_of_the_node_count(self):
        # At C = 1 the transpose sends every chunk to node 0: a Gather, which
        # star(3) finishes in one step, below Alltoall's latency bound of 2.
        frontier = pareto_synthesize("Alltoall", star(3), k=0, max_steps=3, max_chunks=1)
        assert frontier.points == []
        assert "multiples of 3" in frontier.note
        assert not frontier.exhausted_steps
        probed = []
        frontier = pareto_synthesize(
            "Alltoall", star(3), k=0, max_steps=3, max_chunks=6, on_result=probed.append
        )
        assert probed and {result.instance.chunks_per_node % 3 for result in probed} == {0}
        assert [(p.chunks_per_node, p.steps, p.rounds) for p in frontier.points] == [(3, 2, 2)]
        assert frontier.points[0].latency_optimal and frontier.points[0].bandwidth_optimal


class TestCombiningDelegation:
    def test_reducescatter_frontier(self):
        frontier = pareto_synthesize("Reducescatter", ring(4), k=0, max_steps=3)
        assert frontier.collective == "Reducescatter"
        assert frontier.points
        for point in frontier.points:
            assert point.algorithm.combining
            point.algorithm.verify()

    def test_allreduce_frontier_doubles_steps(self):
        frontier = pareto_synthesize("Allreduce", ring(4), k=0, max_steps=3)
        assert frontier.points
        for point in frontier.points:
            assert point.steps % 2 == 0
            assert point.chunks_per_node % 4 == 0
            point.algorithm.verify()
        assert frontier.latency_lower_bound == 4

    def test_reduce_frontier(self):
        frontier = pareto_synthesize("Reduce", star(4), k=0, max_steps=2)
        assert frontier.points
        assert frontier.points[0].algorithm.collective == "Reduce"

    def test_negative_k_rejected(self):
        with pytest.raises(ParetoError):
            pareto_synthesize("Allgather", ring(4), k=-1)

    @pytest.mark.parametrize("max_chunks", [0, -2])
    def test_max_chunks_below_one_rejected(self, max_chunks):
        # No candidate has fewer than one chunk: an empty search would
        # report an empty frontier as if the step budget ran out.
        with pytest.raises(ParetoError, match="max_chunks"):
            pareto_synthesize("Allgather", ring(4), k=0, max_chunks=max_chunks)

    def test_max_steps_below_the_latency_bound_exhausts_nothing(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=1)
        assert frontier.points == []
        assert "no step count to probe" in frontier.note
        assert not frontier.exhausted_steps

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_max_steps_below_one_rejected(self, max_steps):
        # Same as max_chunks: no step count to probe is a caller error, not
        # an exhausted step budget.
        with pytest.raises(ParetoError, match="max_steps"):
            pareto_synthesize("Allgather", ring(4), k=0, max_steps=max_steps)


class TestResourceLimits:
    def test_unknown_results_recorded_not_fabricated(self):
        frontier = pareto_synthesize(
            "Allgather", ring(6), k=0, max_steps=5, conflict_limit=1
        )
        # With an absurd conflict limit some probes return UNKNOWN; any point
        # reported must still be a genuine SAT with a verified algorithm.
        for point in frontier.points:
            assert point.status is SolveResult.SAT
            point.algorithm.verify()


class TestStrategyNames:
    def test_auto_is_an_unknown_strategy(self):
        """Nothing picks a strategy for the caller: the error names the four."""
        from repro.engine import DispatchError

        with pytest.raises(DispatchError) as exc:
            pareto_synthesize("Allgather", ring(4), k=0, max_steps=3, strategy="auto")
        message = str(exc.value)
        assert "unknown sweep strategy 'auto'" in message
        for name in ("serial", "incremental", "parallel", "speculative"):
            assert repr(name) in message


@pytest.mark.parametrize("root", [3, -1])
@pytest.mark.parametrize("collective", ["Allgather", "Alltoall", "Allreduce", "Reducescatter"])
def test_rootless_collective_refuses_a_root(collective, root):
    """A collective without a root takes root 0 only: any other root would
    key the same work a second time."""
    with pytest.raises(ParetoError, match=f"{collective} has no root, got root={root}"):
        pareto_synthesize(collective, ring(4), k=0, max_steps=3, root=root)
