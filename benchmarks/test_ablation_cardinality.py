"""Ablation: cardinality encoder choice inside the C5 bandwidth constraints.

The cardinality/totalizer encoders are a design choice of the encoder,
which writes CNF itself (Z3 handles pseudo-Boolean sums natively).  This
benchmark calls the named encoders directly and measures the sequential
counter against the totalizer on the at-most-k queries the synthesis
encoding generates, and the pairwise against the commander at-most-one.
"""

import pytest

from conftest import report
from repro.solver import CNF, SATSolver, SolveResult
from repro.solver import encoders


def _at_most_k_totalizer(cnf: CNF, lits, k: int) -> None:
    """A totalizer counting to ``k + 1`` with its last output forced false."""
    outputs = encoders.totalizer(cnf, lits, bound=k + 1)
    cnf.add_clause([-outputs[k]])


AT_MOST_K = {
    "sequential": encoders.at_most_k_sequential,
    "totalizer": _at_most_k_totalizer,
}
AT_MOST_ONE = {
    "pairwise": encoders.at_most_one_pairwise,
    "commander": encoders.at_most_one_commander,
}


def _build_formula(method: str, n: int, k: int, force: int) -> CNF:
    cnf = CNF()
    xs = cnf.new_vars(n)
    AT_MOST_K[method](cnf, xs, k)
    # Force `force` of the inputs true: SAT iff force <= k.
    for lit in xs[:force]:
        cnf.add_clause([lit])
    return cnf


@pytest.mark.parametrize("method", list(AT_MOST_K))
def test_at_most_k_encoders_sat(benchmark, method):
    def run():
        cnf = _build_formula(method, n=96, k=2, force=2)
        solver = SATSolver()
        solver.add_cnf(cnf)
        return solver.solve(), cnf

    (result, cnf) = benchmark(run)
    assert result is SolveResult.SAT
    report(
        f"Cardinality ablation ({method}, n=96, k=2, SAT)",
        f"{cnf.num_vars} vars, {cnf.num_clauses} clauses",
    )


@pytest.mark.parametrize("method", list(AT_MOST_K))
def test_at_most_k_encoders_unsat(benchmark, method):
    def run():
        cnf = _build_formula(method, n=96, k=2, force=3)
        solver = SATSolver()
        solver.add_cnf(cnf)
        return solver.solve()

    assert benchmark(run) is SolveResult.UNSAT


@pytest.mark.parametrize("method", list(AT_MOST_ONE))
def test_at_most_one_encoders(benchmark, method):
    def run():
        cnf = CNF()
        xs = cnf.new_vars(128)
        AT_MOST_ONE[method](cnf, xs)
        cnf.add_clause([xs[7]])
        solver = SATSolver()
        solver.add_cnf(cnf)
        return solver.solve()

    assert benchmark(run) is SolveResult.SAT
