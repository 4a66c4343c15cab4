"""Tests for the cardinality encoders and order-encoded integers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from test_sat import engine_solve

from repro.solver import CNF, IntVar, SolveResult, unary_sum_equals
from repro.solver import encoders


def count_models(cnf: CNF, interesting_vars):
    """Enumerate models over `interesting_vars` by brute force (small only)."""
    models = []
    for bits in itertools.product([False, True], repeat=len(interesting_vars)):
        assumption = [
            v if bit else -v for v, bit in zip(interesting_vars, bits)
        ]
        result, _ = engine_solve(cnf, assumptions=assumption)
        if result is SolveResult.SAT:
            models.append(bits)
    return models


AT_MOST_ONE = {
    "pairwise": encoders.at_most_one_pairwise,
    "commander": encoders.at_most_one_commander,
    "auto": encoders.at_most_one,
}


@pytest.mark.parametrize("method", list(AT_MOST_ONE))
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_at_most_one(method, n):
    cnf = CNF()
    xs = cnf.new_vars(n)
    AT_MOST_ONE[method](cnf, xs)
    models = count_models(cnf, xs)
    assert all(sum(bits) <= 1 for bits in models)
    assert len(models) == n + 1  # none true or exactly one true


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 1), (5, 0)])
def test_at_most_k_sequential(n, k):
    cnf = CNF()
    xs = cnf.new_vars(n)
    encoders.at_most_k_sequential(cnf, xs, k)
    models = count_models(cnf, xs)
    expected = sum(
        1 for bits in itertools.product([0, 1], repeat=n) if sum(bits) <= k
    )
    assert all(sum(bits) <= k for bits in models)
    assert len(models) == expected


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
def test_at_most_k_totalizer(n, k):
    cnf = CNF()
    xs = cnf.new_vars(n)
    outputs = encoders.totalizer(cnf, xs, bound=k + 1)
    cnf.add_clause([-outputs[k]])
    models = count_models(cnf, xs)
    assert all(sum(bits) <= k for bits in models)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 4), (3, 3)])
def test_at_least_and_exactly_k(n, k):
    cnf = CNF()
    xs = cnf.new_vars(n)
    encoders.exactly_k(cnf, xs, k)
    models = count_models(cnf, xs)
    assert models
    assert all(sum(bits) == k for bits in models)


def test_at_least_k_more_than_n_unsat():
    cnf = CNF()
    xs = cnf.new_vars(3)
    encoders.at_least_k(cnf, xs, 5)
    result, _ = engine_solve(cnf)
    assert result is SolveResult.UNSAT


def test_exactly_one_requires_one():
    # The "one sender per chunk" shape of constraint C3: exactly_k with k=1.
    cnf = CNF()
    xs = cnf.new_vars(4)
    encoders.exactly_k(cnf, xs, 1)
    models = count_models(cnf, xs)
    assert len(models) == 4
    assert all(sum(bits) == 1 for bits in models)


def test_totalizer_outputs_count_correctly():
    cnf = CNF()
    xs = cnf.new_vars(5)
    outputs = encoders.totalizer(cnf, xs, bound=5)
    # Force exactly 3 inputs true and check output thresholds: out[i] may be
    # implied for i < 3 and must be refutable... the encoding is one-sided,
    # so we check the guaranteed direction: 3 true inputs forces out[2].
    for lit in xs[:3]:
        cnf.add_clause([lit])
    for lit in xs[3:]:
        cnf.add_clause([-lit])
    cnf.add_clause([-outputs[2]])
    result, _ = engine_solve(cnf)
    assert result is SolveResult.UNSAT


def formula():
    """An empty formula and its always-true literal, as the encoders make them."""
    cnf = CNF()
    true = cnf.new_var()
    cnf.add_clause([true])
    return cnf, true


class TestIntVar:
    def test_value_decoding_all_domain(self):
        cnf, true = formula()
        iv = IntVar(cnf, 0, 5, true)
        for value in range(6):
            result, model = engine_solve(cnf, assumptions=[iv.ge_lit(value), iv.le_lit(value)])
            assert result is SolveResult.SAT
            assert iv.value(model) == value

    @given(lo=st.integers(-2, 2), width=st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_order_encoding_models_are_the_domain(self, lo, width):
        cnf, true = formula()
        iv = IntVar(cnf, lo, lo + width, true)
        models = count_models(cnf, iv.booleans())
        assert len(models) == width + 1  # one model per value, all monotone
        assert all(list(bits) == sorted(bits, reverse=True) for bits in models)

    def test_comparison_literals(self):
        cnf, true = formula()
        iv = IntVar(cnf, 2, 6, true)
        assert iv.ge_lit(2) == true
        assert iv.ge_lit(7) == -true
        assert iv.le_lit(6) == true
        assert iv.le_lit(1) == -true

    def test_bound_literals_pin_the_value(self):
        cnf, true = formula()
        iv = IntVar(cnf, 0, 4, true)
        result, model = engine_solve(cnf, assumptions=[iv.ge_lit(3), iv.le_lit(3)])
        assert result is SolveResult.SAT
        assert iv.value(model) == 3

    def test_out_of_domain_fix_is_unsat(self):
        cnf, true = formula()
        iv = IntVar(cnf, 0, 2, true)
        assert iv.ge_lit(5) == -true
        result, _ = engine_solve(cnf, assumptions=[iv.ge_lit(5), iv.le_lit(5)])
        assert result is SolveResult.UNSAT

    def test_empty_domain_rejected(self):
        cnf, true = formula()
        with pytest.raises(ValueError):
            IntVar(cnf, 3, 1, true)

    @given(total=st.integers(0, 8))
    @settings(max_examples=12, deadline=None)
    def test_unary_sum_equals(self, total):
        cnf, true = formula()
        ivs = [IntVar(cnf, 0, 3, true) for _ in range(3)]
        unary_sum_equals(cnf, ivs, total)
        result, model = engine_solve(cnf)
        if total > 9:
            assert result is SolveResult.UNSAT
        else:
            assert result is SolveResult.SAT
            values = [iv.value(model) for iv in ivs]
            assert sum(values) == total
