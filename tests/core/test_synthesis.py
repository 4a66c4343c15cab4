"""Tests for the SMT encoding and single-instance synthesis (small topologies).

The DGX-1-scale instances are exercised by the benchmark harness; the unit
tests here keep instances small enough (rings/lines/cliques of 3-6 nodes,
plus the cheap DGX-1 latency-optimal points) to run in seconds.
"""

import pytest

from repro.core import (
    ScclEncoding,
    make_instance,
    solve_encoding,
    synthesize,
)
from repro.solver import SolveResult
from repro.topology import dgx1, fully_connected, line, ring, star


def assert_sat_and_valid(result):
    assert result.is_sat, result.summary()
    assert result.algorithm is not None
    result.algorithm.verify()
    return result.algorithm


class TestRingAllgather:
    def test_figure2_one_synchronous_instance(self):
        # Figure 2: Allgather on a 4-ring with S=2, R=3 (1-synchronous).
        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
        algo = assert_sat_and_valid(result)
        assert algo.signature() == (1, 2, 3)
        assert algo.num_steps == 2
        assert algo.total_rounds == 3

    def test_zero_synchronous_instance(self):
        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 2))
        assert_sat_and_valid(result)

    def test_one_step_is_unsat_on_a_ring_of_four(self):
        # Diameter 2: one step cannot reach the opposite node.
        result = synthesize(make_instance("Allgather", ring(4), 1, 1, 1))
        assert result.is_unsat
        assert result.algorithm is None

    def test_insufficient_rounds_unsat(self):
        # With C=2 on a 6-ring each node must receive 10 chunks over an
        # in-capacity of 2/round, so 4 rounds (at most 8 receptions) cannot
        # suffice even though the latency bound (diameter 3) is met.
        result = synthesize(make_instance("Allgather", ring(6), 2, 4, 4))
        assert result.is_unsat

    def test_ring6_allgather_bandwidth_optimal(self):
        # 5 peers / 2 incoming links -> R/C = 5/2; C=2, R=5, S=5 is feasible.
        result = synthesize(make_instance("Allgather", ring(6), 2, 5, 5))
        algo = assert_sat_and_valid(result)
        assert algo.bandwidth_cost == pytest.approx(2.5)


class TestOtherCollectives:
    def test_broadcast_on_star(self):
        result = synthesize(make_instance("Broadcast", star(5), 1, 1, 1, root=0))
        algo = assert_sat_and_valid(result)
        assert algo.num_steps == 1

    def test_broadcast_from_leaf_of_line(self):
        result = synthesize(make_instance("Broadcast", line(4), 1, 3, 3, root=0))
        assert_sat_and_valid(result)

    def test_broadcast_too_few_steps_unsat(self):
        result = synthesize(make_instance("Broadcast", line(4), 1, 2, 2, root=0))
        assert result.is_unsat

    def test_gather_on_ring(self):
        result = synthesize(make_instance("Gather", ring(4), 1, 2, 3, root=0))
        algo = assert_sat_and_valid(result)
        # Root ends with every chunk.
        final = algo.run()[-1]
        assert all((c, 0) in final for c in range(4))

    def test_scatter_on_ring(self):
        result = synthesize(make_instance("Scatter", ring(4), 1, 2, 3, root=0))
        assert_sat_and_valid(result)

    def test_alltoall_on_fully_connected(self):
        result = synthesize(make_instance("Alltoall", fully_connected(4), 4, 1, 1))
        algo = assert_sat_and_valid(result)
        assert algo.num_steps == 1

    def test_alltoall_on_ring(self):
        result = synthesize(make_instance("Alltoall", ring(4), 4, 2, 4))
        assert_sat_and_valid(result)


class TestDgx1CheapPoints:
    def test_latency_optimal_allgather(self):
        # Table 4 row (1, 2, 2): the novel 2-step latency-optimal Allgather.
        result = synthesize(make_instance("Allgather", dgx1(), 1, 2, 2))
        algo = assert_sat_and_valid(result)
        assert algo.num_steps == 2
        assert algo.bandwidth_cost == 2

    def test_latency_optimal_with_better_bandwidth(self):
        # Table 4 row (2, 2, 3): 2 steps, bandwidth cost 3/2 (Section 2.5).
        result = synthesize(make_instance("Allgather", dgx1(), 2, 2, 3))
        algo = assert_sat_and_valid(result)
        assert float(algo.bandwidth_cost) == pytest.approx(1.5)

    def test_one_step_allgather_unsat_on_dgx1(self):
        result = synthesize(make_instance("Allgather", dgx1(), 1, 1, 1))
        assert result.is_unsat


class TestEncodingMechanics:
    def test_statistics_populated(self):
        encoder = ScclEncoding(make_instance("Allgather", ring(4), 1, 2, 2))
        encoder.encode()
        stats = encoder.stats.as_dict()
        assert stats["variables"] > 0
        assert stats["clauses"] > 0
        assert stats["send_vars"] > 0

    def test_pruning_reduces_send_variables(self):
        instance = make_instance("Gather", line(5), 1, 4, 4, root=0)
        pruned = ScclEncoding(instance, prune=True)
        pruned.encode()
        unpruned = ScclEncoding(instance, prune=False)
        unpruned.encode()
        assert pruned.stats.send_vars < unpruned.stats.send_vars

    def test_decode_before_encode_rejected(self):
        encoder = ScclEncoding(make_instance("Allgather", ring(4), 1, 2, 2))
        with pytest.raises(Exception):
            encoder.decode({})

    def test_unpruned_encoding_agrees(self):
        instance = make_instance("Allgather", ring(4), 1, 2, 2)
        unpruned = solve_encoding(ScclEncoding(instance, prune=False))
        assert unpruned.is_sat and unpruned.algorithm.total_rounds == 2
        assert synthesize(instance).is_sat

    def test_resource_limit_gives_unknown_or_answer(self):
        result = synthesize(
            make_instance("Allgather", ring(6), 2, 5, 5), conflict_limit=1
        )
        assert result.status in (SolveResult.SAT, SolveResult.UNSAT, SolveResult.UNKNOWN)


class TestArithmeticVerdicts:
    """Instances a single node's cut refutes are answered without a solver."""

    def test_in_cut_witness_and_summary(self):
        # The root receives 7 * 3 = 21 chunks over 6 lanes: R >= 4.
        result = synthesize(make_instance("Gather", dgx1(), 3, 3, 3))
        assert result.is_unsat and result.provenance == "bound"
        assert result.solver_stats == {}
        witness = result.witness
        assert (sorted(witness.part), witness.chunks, witness.capacity) == ([0], 21, 6)
        assert "21 chunks must enter nodes [0]" in result.summary()
        assert "6 per round x 3 rounds = 18" in result.summary()

    def test_out_cut_witness(self):
        # The root sends 7 * 2 = 14 chunks over 6 lanes: R >= 3.
        result = synthesize(make_instance("Scatter", dgx1(), 2, 2, 2))
        assert result.provenance == "bound"
        assert sorted(result.witness.part) == [1, 2, 3, 4, 5, 6, 7]
        assert (result.witness.chunks, result.witness.capacity) == (14, 6)

    def test_feasible_rounds_leave_the_solver_in_charge(self):
        result = synthesize(make_instance("Gather", dgx1(), 3, 3, 4))
        assert result.is_sat and result.provenance == "solved" and result.witness is None

    def test_budgeted_and_selector_forms_do_not_check_cuts(self):
        # One such formula serves many (C, R) frames; a cut refutes one.
        instance = make_instance("Gather", dgx1(), 3, 3, 3)
        for kwargs in ({"rounds_budget": 4}, {"chunk_selector": True}):
            encoder = ScclEncoding(instance, **kwargs)
            encoder.encode()
            assert encoder.cut_witness is None and encoder.stats.clauses > 2


class TestNoFormulaOption:
    """The formula is not a choice: above the encoders, no entry point takes
    ``encoding``, ``prune`` or ``verify``; every probe solves the pruned
    ``ScclEncoding`` and verifies what it decodes."""

    @staticmethod
    def entry_points(tmp_path):
        from repro.core.synthesizer import _probe, finish_probe
        from repro.engine import (
            AlgorithmCache, FamilyExecutor, SweepRequest, fingerprint, instance_fingerprint, lookup_result, make_dispatcher,
            store_result,
        )
        from repro.engine.dispatch import (
            _cached_result, _check_uniform, _cut_for, _solve_exact,
        )
        from repro.interchange import read_plan
        from repro.service import PlanRegistry, PlanRequest, PlanResponse
        from repro.service.registry import routing_key

        cache = AlgorithmCache(tmp_path / "algorithms")
        registry = PlanRegistry(cache=cache)
        family = FamilyExecutor(SweepRequest("Allgather", ring(4), 2, ()))
        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        return {
            "synthesize": lambda **kw: synthesize(instance, **kw),
            "_probe": lambda **kw: _probe(instance, **kw),
            "finish_probe": lambda **kw: finish_probe(
                instance, None, None, backend="cdcl", encode_time=0.0,
                encoding_stats={}, **kw),
            "SweepRequest": lambda **kw: SweepRequest(
                "Allgather", ring(4), 2, ((3, 1),), **kw),
            "_solve_exact": lambda **kw: _solve_exact(None, **kw),
            "FamilyExecutor": lambda **kw: FamilyExecutor(None, **kw),
            "_check_uniform": lambda **kw: _check_uniform([], **kw),
            "_cached_result": lambda **kw: _cached_result(None, cache, {}, **kw),
            "_cut_for": lambda **kw: _cut_for(None, None, cache, **kw),
            "make_dispatcher": lambda **kw: make_dispatcher("incremental", **kw),
            "FamilyExecutor.result": lambda **kw: family.result(None, **kw),
            "fingerprint": lambda **kw: fingerprint("Allgather", ring(4), 1, 2, 3, **kw),
            "instance_fingerprint": lambda **kw: instance_fingerprint(instance, **kw),
            "lookup_result": lambda **kw: lookup_result(cache, instance, **kw),
            "store_result": lambda **kw: store_result(cache, None, **kw),
            "lookup_decoded": lambda **kw: cache.lookup_decoded("k", ring(4), **kw),
            "_decode_algorithm": lambda **kw: cache._decode_algorithm(
                None, ring(4), "k", **kw),
            "load_algorithm": lambda **kw: cache.load_algorithm(
                "Allgather", ring(4), 1, 2, 3, **kw),
            "routing_key": lambda **kw: routing_key("Allgather", ring(4), **kw),
            "lookup_pinned_json": lambda **kw: registry.lookup_pinned_json(request, **kw),
            "table_key": lambda **kw: registry.table_key(request, **kw),
            "PlanRequest": lambda **kw: PlanRequest(
                "Allgather", "ring:4", chunks=1, steps=2, rounds=3, **kw),
            # Only AlgorithmPlan.from_json keeps ``verify``: what reads plans
            # in from outside always checks them.
            "read_plan": lambda **kw: read_plan(tmp_path / "plan.json", **kw),
            "PlanResponse.plan_object": lambda **kw: PlanResponse("ok", "k").plan_object(**kw),
        }

    @pytest.mark.parametrize("option, value", [
        ("encoding", "sccl"), ("prune", True), ("verify", True),
    ])
    def test_every_entry_point_rejects_the_option(self, tmp_path, option, value):
        for name, call in self.entry_points(tmp_path).items():
            with pytest.raises(TypeError, match=option):
                call(**{option: value})
                pytest.fail(f"{name} accepted {option}=")

    def test_the_sweep_always_stops_at_bandwidth_optimal(self):
        from repro.core import pareto_synthesize

        with pytest.raises(TypeError, match="stop_at_bandwidth_optimal"):
            pareto_synthesize("Allgather", ring(4), stop_at_bandwidth_optimal=False)

    def test_retired_helpers_are_gone(self):
        import repro.engine
        import repro.solver
        from repro.solver import IntVar

        assert not hasattr(repro.engine, "load_algorithm")
        assert not hasattr(repro.engine.cache, "load_algorithm")
        assert not hasattr(repro.solver, "SmtLite")
        assert not hasattr(IntVar, "gt_lit") and not hasattr(IntVar, "lt_lit")
