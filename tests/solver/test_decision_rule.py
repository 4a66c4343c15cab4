"""The decision rule the CDCL core's order heap implements.

Until the first rescale of the activities, every decision branches on the
unassigned variable with the highest activity, the lowest index on ties.
Never-bumped variables (activity 0.0) therefore come last, in index order.
The heap's representation (lazy entries, counted copies, a separate tier for
unbumped variables) may change; this rule, and the trajectory goldens in
``test_trajectory.py``, may not.
"""

import random

import pytest

from test_sat import pigeonhole_cnf, random_3sat_cnf

from repro.core import ScclEncoding, make_instance
from repro.solver import SATSolver
from repro.solver.sat import UNASSIGNED
from repro.topology import dgx1


def watch_decisions(solver):
    """Check every pick of ``solver`` until its first rescale; returns the
    list the number of checked picks is appended to."""
    checked = []
    rescaled = []
    pick, rescale = solver._pick_branch_var, solver._rescale_var_activity

    def checked_pick():
        var = pick()
        if not rescaled:
            val, activity = solver._val, solver._activity
            free = [v for v in range(1, solver.num_vars + 1) if val[v] == UNASSIGNED]
            if var is None:
                assert not free
            else:
                assert var == min(free, key=lambda v: (-activity[v], v))
                checked.append(var)
        return var

    def noted_rescale():
        rescaled.append(True)
        return rescale()

    solver._pick_branch_var = checked_pick
    solver._rescale_var_activity = noted_rescale
    return checked


def one_shot(cnf):
    solver = SATSolver()
    solver.add_cnf(cnf)
    checked = watch_decisions(solver)
    solver.solve()
    return solver, checked


@pytest.mark.parametrize(
    "cnf",
    [
        pytest.param(lambda: pigeonhole_cnf(6), id="pigeonhole_6"),
        pytest.param(lambda: random_3sat_cnf(random.Random(1), 160, 681), id="random_3sat_seed1"),
    ],
)
def test_each_decision_is_the_most_active_free_variable(cnf):
    solver, checked = one_shot(cnf())
    assert len(checked) == solver.stats.decisions > 0


def test_decision_rule_holds_across_assumption_frames():
    instance = make_instance("Allgather", dgx1(), 2, 2, 5)
    encoder = ScclEncoding(instance, rounds_budget=5)
    solver = SATSolver()
    solver.add_cnf(encoder.encode().cnf)
    checked = watch_decisions(solver)
    for rounds in (2, 3, 5, 4):
        solver.solve(encoder.rounds_assumptions(rounds), conflict_limit=200)
    assert len(checked) == solver.stats.decisions > 0
