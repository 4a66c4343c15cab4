"""Unit tests for the CNF container."""

import pytest

from repro.solver import CNF, CNFError


def test_new_var_sequence():
    cnf = CNF()
    assert cnf.new_var() == 1
    assert cnf.new_var() == 2
    assert cnf.new_vars(3) == [3, 4, 5]
    assert cnf.num_vars == 5


def test_add_clause_tracks_variables():
    cnf = CNF()
    cnf.add_clause([1, -7, 3])
    assert cnf.num_vars == 7
    assert cnf.num_clauses == 1


def test_zero_literal_rejected():
    cnf = CNF()
    with pytest.raises(CNFError):
        cnf.add_clause([1, 0, 2])


def test_tautology_dropped_and_duplicates_removed():
    cnf = CNF()
    cnf.add_clause([1, -1, 2])
    assert cnf.num_clauses == 0
    cnf.add_clause([3, 3, 4])
    assert cnf.clauses[0] == [3, 4]


def test_negative_var_allocation_rejected():
    cnf = CNF()
    with pytest.raises(CNFError):
        cnf.new_vars(-1)


def test_add_clause_fast_skips_normalization_scans():
    """The pre-normalized fast path appends verbatim: no tautology drop, no
    dedup, no variable bookkeeping — the caller owns those guarantees."""
    cnf = CNF()
    vars_ = cnf.new_vars(3)
    cnf.add_clause_fast([vars_[0], -vars_[1]])
    assert cnf.clauses[-1] == [vars_[0], -vars_[1]]
    # Unlike add_clause, a tautological clause is kept (redundant, not wrong).
    cnf.add_clause([vars_[2], -vars_[2]])
    assert cnf.num_clauses == 1
    cnf.add_clause_fast([vars_[2], -vars_[2]])
    assert cnf.num_clauses == 2
    # num_vars is untouched: the caller must have allocated the variables.
    assert cnf.num_vars == 3


def test_fast_path_formulas_solve_identically():
    from repro.solver import SATSolver, SolveResult

    slow, fast = CNF(), CNF()
    for target in (slow, fast):
        target.new_vars(3)
    for clause in ([1, 2], [-1, 3], [-2, -3], [1, -3]):
        slow.add_clause(clause)
        fast.add_clause_fast(list(clause))
    for formula in (slow, fast):
        solver = SATSolver()
        assert solver.add_cnf(formula)
        assert solver.solve() is SolveResult.SAT
