"""Unit tests for the CDCL SAT solver."""

import itertools
import random

import pytest

from repro.engine import get_backend
from repro.solver import CNF, SATSolver, SolveResult, luby
from repro.solver.cnf import clause_is_satisfied


def engine_solve(cnf: CNF, assumptions=(), conflict_limit=None):
    """Solve ``cnf`` on the handle the engine uses: ``(result, model or None)``."""
    handle = get_backend().create()
    if not handle.load(cnf):
        return SolveResult.UNSAT, None
    result = handle.solve(assumptions, conflict_limit=conflict_limit)
    return result, handle.model() if result is SolveResult.SAT else None


def brute_force_sat(cnf: CNF) -> bool:
    """Exhaustive reference check (only for tiny formulas)."""
    n = cnf.num_vars
    for bits in itertools.product([False, True], repeat=n):
        assignment = {v: bits[v - 1] for v in range(1, n + 1)}
        if all(clause_is_satisfied(c, assignment) for c in cnf.clauses):
            return True
    return False


def test_empty_formula_is_sat():
    solver = SATSolver()
    assert solver.solve() is SolveResult.SAT


def test_single_unit_clause():
    solver = SATSolver()
    v = solver.new_var()
    assert solver.add_clause([v])
    assert solver.solve() is SolveResult.SAT
    assert solver.model_value(v) is True


def test_contradictory_units_unsat():
    solver = SATSolver()
    v = solver.new_var()
    solver.add_clause([v])
    assert not solver.add_clause([-v]) or solver.solve() is SolveResult.UNSAT


def test_simple_implication_chain():
    solver = SATSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a])
    solver.add_clause([-a, b])
    solver.add_clause([-b, c])
    assert solver.solve() is SolveResult.SAT
    assert solver.model_value(a) and solver.model_value(b) and solver.model_value(c)


def test_unsat_triangle():
    # (a | b) & (!a | b) & (a | !b) & (!a | !b) is UNSAT
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    solver.add_clause([-a, b])
    solver.add_clause([a, -b])
    solver.add_clause([-a, -b])
    assert solver.solve() is SolveResult.UNSAT


def pigeonhole_cnf(holes: int) -> CNF:
    """Pigeonhole principle PHP(holes + 1, holes): always UNSAT."""
    cnf = CNF()
    pigeons = holes + 1
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


@pytest.mark.parametrize("holes", [2, 3, 4, 5])
def test_pigeonhole_unsat(holes):
    result, model = engine_solve(pigeonhole_cnf(holes))
    assert result is SolveResult.UNSAT
    assert model is None


def test_graph_coloring_sat():
    """3-coloring of a 5-cycle is satisfiable."""
    cnf = CNF()
    n, colors = 5, 3
    var = {(v, c): cnf.new_var() for v in range(n) for c in range(colors)}
    for v in range(n):
        cnf.add_clause([var[v, c] for c in range(colors)])
        for c1 in range(colors):
            for c2 in range(c1 + 1, colors):
                cnf.add_clause([-var[v, c1], -var[v, c2]])
    for v in range(n):
        u = (v + 1) % n
        for c in range(colors):
            cnf.add_clause([-var[v, c], -var[u, c]])
    result, model = engine_solve(cnf)
    assert result is SolveResult.SAT
    # Verify the coloring.
    coloring = {}
    for v in range(n):
        chosen = [c for c in range(colors) if model[var[v, c]]]
        assert len(chosen) == 1
        coloring[v] = chosen[0]
    for v in range(n):
        assert coloring[v] != coloring[(v + 1) % n]


def test_graph_coloring_unsat():
    """2-coloring of a triangle is unsatisfiable."""
    cnf = CNF()
    var = {(v, c): cnf.new_var() for v in range(3) for c in range(2)}
    for v in range(3):
        cnf.add_clause([var[v, 0], var[v, 1]])
        cnf.add_clause([-var[v, 0], -var[v, 1]])
    for v in range(3):
        for u in range(v + 1, 3):
            for c in range(2):
                cnf.add_clause([-var[v, c], -var[u, c]])
    result, _ = engine_solve(cnf)
    assert result is SolveResult.UNSAT


def random_3sat_cnf(rng, n_vars, n_clauses):
    cnf = CNF()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        clause_vars = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause_vars])
    return cnf


@pytest.mark.parametrize("seed", range(8))
def test_random_3sat_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    cnf = random_3sat_cnf(rng, 8, rng.randint(20, 40))
    expected = brute_force_sat(cnf)
    result, model = engine_solve(cnf)
    assert (result is SolveResult.SAT) == expected
    if model is not None:
        assignment = {v: model[v] for v in range(1, cnf.num_vars + 1)}
        assert all(clause_is_satisfied(c, assignment) for c in cnf.clauses)


def test_model_satisfies_all_clauses_on_structured_instance():
    cnf = pigeonhole_cnf(4)
    # Make it satisfiable by removing a pigeon's at-least-one clause.
    cnf.clauses.pop(0)
    result, model = engine_solve(cnf)
    assert result is SolveResult.SAT
    assignment = {v: model[v] for v in range(1, cnf.num_vars + 1)}
    assert all(clause_is_satisfied(c, assignment) for c in cnf.clauses)


def test_assumptions_interface():
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve(assumptions=[-a]) is SolveResult.SAT
    assert solver.model_value(b) is True
    assert solver.solve(assumptions=[-a, -b]) is SolveResult.UNSAT
    # Solver remains usable after an assumption failure.
    assert solver.solve() is SolveResult.SAT


def test_conflict_limit_returns_unknown():
    cnf = pigeonhole_cnf(7)
    result, _ = engine_solve(cnf, conflict_limit=5)
    assert result in (SolveResult.UNKNOWN, SolveResult.UNSAT)


def test_luby_sequence_prefix():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_stats_populated():
    cnf = pigeonhole_cnf(5)
    solver = SATSolver()
    solver.add_cnf(cnf)
    assert solver.solve() is SolveResult.UNSAT
    assert solver.stats.conflicts > 0
    assert solver.stats.decisions > 0
    assert solver.stats.propagations > 0


def test_duplicate_and_tautological_clauses():
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    assert solver.add_clause([a, a, b])
    assert solver.add_clause([a, -a])  # tautology dropped
    assert solver.solve() is SolveResult.SAT


def test_clause_added_after_failed_assumptions_is_sound():
    """solve() is back at level 0 after UNSAT-under-assumptions: the unit below
    must not meet a leftover assumption -a and make the solver UNSAT for good."""
    solver = SATSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b, c])
    assert solver.solve([-a, -b, -c]) is SolveResult.UNSAT
    assert solver._trail_lim == []
    assert solver.add_clause([a])
    assert solver.solve() is SolveResult.SAT
    assert solver.model_value(a) is True


def test_unit_added_after_exhausted_budget_is_kept():
    """After UNKNOWN the solver is back at level 0: a unit added then is a
    fact of the formula, not an assignment the next solve() undoes."""
    solver = SATSolver()
    solver.add_cnf(random_3sat_cnf(random.Random(3), 175, 745))  # SAT after 726 conflicts
    assert solver.solve(conflict_limit=1) is SolveResult.UNKNOWN
    assert solver._trail_lim == []
    fresh = solver.new_var()
    assert solver.add_clause([fresh])
    assert solver.solve() is SolveResult.SAT
    assert solver.model_value(fresh) is True


def test_solve_time_grows_on_every_exit(monkeypatch):
    class Clock:
        now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    monkeypatch.setattr("repro.solver.sat.time", Clock())

    def timed(solver, *args, **limits):
        before = solver.stats.solve_time
        result = solver.solve(*args, **limits)
        assert solver.stats.solve_time > before
        return result

    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert timed(solver) is SolveResult.SAT
    assert timed(solver, [-a, -b]) is SolveResult.UNSAT  # failed assumptions
    solver.add_clause([-a])
    assert not solver.add_clause([-b])  # trivially UNSAT from here on
    assert timed(solver) is SolveResult.UNSAT  # the exit before the search
    hard = SATSolver()
    hard.add_cnf(pigeonhole_cnf(7))
    assert timed(hard, conflict_limit=2) is SolveResult.UNKNOWN
    assert timed(hard, time_limit=0.0) is SolveResult.UNKNOWN


def test_assumption_outside_the_variable_space_is_rejected():
    solver = SATSolver()
    solver.new_var()
    with pytest.raises(ValueError):
        solver.solve([2])
    with pytest.raises(ValueError):
        solver.solve([0])


@pytest.mark.parametrize("limits", [
    {"conflict_limit": -1}, {"conflict_limit": -5},
    {"time_limit": -1.0}, {"time_limit": -1e-9}, {"time_limit": float("nan")},
], ids=["conflicts-1", "conflicts-5", "seconds-1", "seconds-tiny", "seconds-nan"])
def test_negative_limits_are_rejected(limits):
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    with pytest.raises(ValueError):
        solver.solve(**limits)
    assert solver.solve() is SolveResult.SAT


def test_zero_limits_are_limits():
    solver = SATSolver()
    solver.add_cnf(pigeonhole_cnf(7))
    assert solver.solve(conflict_limit=0) is SolveResult.UNKNOWN
    assert solver.stats.conflicts == 1
    assert solver.solve(time_limit=0.0) is SolveResult.UNKNOWN
