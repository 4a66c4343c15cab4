"""Tests for the engine's solver handle and its lookup."""

import pytest

from repro.engine import BackendError, CdclHandle, get_backend
from repro.solver import SolveResult


class TestRegistry:
    """What is left of the backend registry: one name, ``cdcl``."""

    def test_default_backend_is_cdcl(self):
        assert get_backend().name == "cdcl"
        assert get_backend(None).name == "cdcl"
        assert isinstance(get_backend("cdcl").create(), CdclHandle)

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="cdcl"):
            get_backend("z3")

    @pytest.mark.parametrize("name", ["kissat", "pysat", "CDCL", ""])
    def test_only_cdcl_is_accepted(self, name):
        with pytest.raises(BackendError, match="the only solver is 'cdcl'"):
            get_backend(name)


class TestCdclHandle:
    def test_handle_solves_and_models(self):
        from repro.solver import CNF

        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        cnf.add_clause([-a])
        handle = CdclHandle()
        assert handle.load(cnf)
        assert handle.solve() is SolveResult.SAT
        model = handle.model()
        assert model[b] and not model[a]
        # Incremental: assumptions flip the answer without reloading.
        assert handle.solve([-b]) is SolveResult.UNSAT
        assert handle.solve([b]) is SolveResult.SAT

    def test_a_trivially_unsat_formula_does_not_load(self):
        from repro.solver import CNF

        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        assert not get_backend().create().load(cnf)

    def test_a_conflict_budget_yields_unknown(self):
        handle = get_backend().create()
        assert handle.load(_pigeonhole(6, 5))
        assert handle.solve(conflict_limit=1) is SolveResult.UNKNOWN
        # The same handle still decides once the budget is lifted.
        assert handle.solve() is SolveResult.UNSAT

    def test_stats_are_the_solver_counters(self):
        handle = get_backend().create()
        handle.load(_pigeonhole(4, 3))
        assert handle.solve() is SolveResult.UNSAT
        stats = handle.stats()
        assert set(stats) == {
            "decisions", "propagations", "conflicts", "restarts",
            "learned_clauses", "deleted_clauses", "max_decision_level", "solve_time",
        }
        assert stats["conflicts"] > 0

    def test_a_grown_formula_loads_again(self):
        from repro.solver import CNF

        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        handle = get_backend().create()
        assert handle.load(cnf) and handle.solve() is SolveResult.SAT
        c = cnf.new_var()
        cnf.add_clause([-a, c])
        cnf.add_clause([-c])
        again = get_backend().create()
        assert again.load(cnf) and again.solve() is SolveResult.SAT
        model = again.model()
        assert set(model) == {a, b, c}
        assert not model[a] and model[b] and not model[c]


def _pigeonhole(pigeons: int, holes: int):
    """``pigeons`` into ``holes`` with no hole shared: UNSAT for pigeons > holes."""
    from repro.solver import CNF

    cnf = CNF()
    sits = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in sits:
        cnf.add_clause(row)
    for hole in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                cnf.add_clause([-sits[i][hole], -sits[j][hole]])
    return cnf


class TestOneCodePath:
    """A cold probe and a family frame both construct a :class:`CdclHandle`
    directly: one per cold probe, one per step count of a family."""

    @pytest.fixture
    def created(self, monkeypatch):
        handles = []
        original = CdclHandle.__init__

        def counting(handle):
            original(handle)
            handles.append(handle)

        monkeypatch.setattr(CdclHandle, "__init__", counting)
        return handles

    def test_a_cold_probe_creates_one_handle(self, created):
        from repro.core import make_instance, synthesize
        from repro.topology import ring

        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
        assert result.is_sat and result.backend == "cdcl"
        assert len(created) == 1

    def test_a_family_creates_one_handle_per_step_count(self, created):
        from repro.engine import FamilyExecutor, SweepRequest
        from repro.engine.dispatch import make_probe
        from repro.topology import ring

        topology = ring(4)
        probes = [
            make_probe(SweepRequest("Allgather", topology, steps, ()), rounds, 1)
            for steps in (2, 3) for rounds in (3, 4)
        ]
        family = FamilyExecutor(probes[0].request)
        family.prefetch(probes)
        for probe in probes:
            assert family.result(probe).backend == "cdcl"
        assert len(created) == 2


class TestNoSolverOption:
    """The solver is not a choice: no entry point takes a ``backend``."""

    def test_synthesize(self):
        from repro.core import make_instance, synthesize
        from repro.topology import ring

        with pytest.raises(TypeError, match="backend"):
            synthesize(make_instance("Allgather", ring(4), 1, 2, 3), backend="cdcl")

    def test_pareto_synthesize(self):
        from repro.core import pareto_synthesize
        from repro.topology import ring

        with pytest.raises(TypeError, match="backend"):
            pareto_synthesize("Allgather", ring(4), backend="cdcl")

    def test_sweep_request(self):
        from repro.engine import SweepRequest
        from repro.topology import ring

        with pytest.raises(TypeError, match="backend"):
            SweepRequest("Allgather", ring(4), 2, ((3, 1),), backend="cdcl")

    def test_family_executor(self):
        from repro.engine import FamilyExecutor, SweepRequest
        from repro.topology import ring

        with pytest.raises(TypeError, match="backend"):
            FamilyExecutor(SweepRequest("Allgather", ring(4), 2, ()), backend="cdcl")

    def test_plan_request(self):
        from repro.service import PlanRequest

        with pytest.raises(TypeError, match="backend"):
            PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, backend="cdcl")


class TestProvenanceLabel:
    """``cdcl`` stays in every serialized form: it is data, not a knob."""

    def test_summary_reads_cdcl_cold_and_cached(self, tmp_path):
        from repro.core import make_instance, synthesize
        from repro.engine import AlgorithmCache
        from repro.topology import ring

        cache = AlgorithmCache(tmp_path)
        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        assert synthesize(instance, cache=cache).summary().endswith("[backend=cdcl]")
        warm = synthesize(instance, cache=cache)
        assert warm.cache_hit and warm.summary().endswith("[cached, backend=cdcl]")
        (entry,) = tmp_path.glob("*/*.json")
        assert '"backend": "cdcl"' in entry.read_text()

    def test_metric_label_is_cdcl(self):
        from repro.core import make_instance, synthesize
        from repro.telemetry import Metrics, set_metrics
        from repro.topology import ring

        fresh = Metrics()
        previous = set_metrics(fresh)
        try:
            synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
        finally:
            set_metrics(previous)
        assert fresh.value("repro_solver_calls_total", backend="cdcl") == 1

    def test_frontier_and_points_read_cdcl(self):
        from repro.core import pareto_synthesize
        from repro.topology import ring

        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=3)
        assert frontier.backend == "cdcl" and frontier.to_dict()["backend"] == "cdcl"
        assert frontier.points
        assert {p.backend for p in frontier.points} == {"cdcl"}

    def test_plan_provenance_reads_cdcl(self):
        from repro.core import make_instance, synthesize
        from repro.interchange import plan_from_result
        from repro.topology import ring

        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
        assert plan_from_result(result).to_json()["provenance"]["backend"] == "cdcl"
