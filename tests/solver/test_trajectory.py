"""Golden search trajectories of the CDCL core.

``bench/expected.json`` pins verdicts and ``proved`` flags under conflict
budgets, so a change to ``repro.solver.sat`` that is meant to make a step
cheaper must not change which steps are taken.  Each case below is pinned
to the numbers the solver produced before its data layout was rewritten
(verdict, conflicts, decisions, propagations, restarts, learned and deleted
clauses, hash of the model): a different decision, a reordered watch list
or a differently ordered activity heap shows up here as a changed count.

To re-record after a change that is *meant* to alter the search, run
``PYTHONPATH=src python tests/solver/test_trajectory.py``.
"""

import hashlib
import random

import pytest

from test_sat import pigeonhole_cnf, random_3sat_cnf

from repro.core import ScclEncoding, make_instance
from repro.solver import SATSolver
from repro.topology import dgx1, ring


def synthesis_cnf(collective, topology, chunks, steps, rounds):
    return ScclEncoding(make_instance(collective, topology, chunks, steps, rounds)).encode().cnf


def snapshot(solver, result):
    """The pinned tuple: verdict, cumulative work counters, model hash."""
    stats = solver.stats
    model = solver.model()
    digest = None
    if model:
        bits = "".join("1" if model[v] else "0" for v in sorted(model))
        digest = hashlib.sha256(bits.encode()).hexdigest()[:12]
    return (
        result.value, stats.conflicts, stats.decisions, stats.propagations,
        stats.restarts, stats.learned_clauses, stats.deleted_clauses, digest,
    )


def one_shot(cnf, **limits):
    solver = SATSolver()
    solver.add_cnf(cnf)
    return [snapshot(solver, solver.solve(**limits))]


def rounds_ladder(collective, chunks, steps, budget, probes):
    """One solver probed under assumptions, the ``SessionFamily`` pattern:
    every ``(rounds, conflict_limit)`` probe is a frame of selector
    assumptions on one clause database, learnt clauses carried along."""
    instance = make_instance(collective, dgx1(), chunks, steps, budget)
    encoder = ScclEncoding(instance, rounds_budget=budget)
    solver = SATSolver()
    solver.add_cnf(encoder.encode().cnf)
    return [
        snapshot(solver, solver.solve(encoder.rounds_assumptions(rounds), conflict_limit=limit))
        for rounds, limit in probes
    ]


CASES = {
    "pigeonhole_5": lambda: one_shot(pigeonhole_cnf(5)),
    "pigeonhole_6": lambda: one_shot(pigeonhole_cnf(6)),
    "random_3sat_seed1": lambda: one_shot(random_3sat_cnf(random.Random(1), 160, 681)),
    "random_3sat_seed3": lambda: one_shot(random_3sat_cnf(random.Random(3), 175, 745)),
    "random_3sat_seed6": lambda: one_shot(random_3sat_cnf(random.Random(6), 160, 681)),
    "ring6_allgather_2_5_5": lambda: one_shot(synthesis_cnf("Allgather", ring(6), 2, 5, 5)),
    "dgx1_allgather_2_2_3": lambda: one_shot(synthesis_cnf("Allgather", dgx1(), 2, 2, 3)),
    "dgx1_allgather_2_2_2": lambda: one_shot(synthesis_cnf("Allgather", dgx1(), 2, 2, 2)),
    "dgx1_broadcast_7_3_3_budget100": lambda: one_shot(
        synthesis_cnf("Broadcast", dgx1(), 7, 3, 3), conflict_limit=100
    ),
    # UNSAT and SAT frames, then frames that run out of budget in between.
    "dgx1_allgather_rounds_ladder": lambda: rounds_ladder(
        "Allgather", 2, 2, 5, ((2, 200), (3, 200), (2, 200), (5, 200), (4, 200), (3, 200))
    ),
    "dgx1_broadcast_rounds_ladder": lambda: rounds_ladder(
        "Broadcast", 7, 3, 5, ((3, 40), (4, 200), (3, 60), (5, 200), (4, 200))
    ),
    # Long enough to cross a VSIDS rescale (activities pass 1e100 after about
    # 4 500 conflicts) and several learnt-clause reductions (> 1 000 learnts).
    "random_3sat_seed2_budget7000": lambda: one_shot(
        random_3sat_cnf(random.Random(2), 175, 745), conflict_limit=7000
    ),
}

# Recorded at commit 2eb871e, before the literal-indexed rewrite of sat.py.
GOLDEN = {
    "pigeonhole_5": [
        ('unsat', 159, 217, 1859, 2, 154, 0, None),
    ],
    "pigeonhole_6": [
        ('unsat', 735, 883, 9645, 6, 727, 0, None),
    ],
    "random_3sat_seed1": [
        ('sat', 1837, 2287, 62907, 14, 1837, 1144, 'fc1c5403297e'),
    ],
    "random_3sat_seed3": [
        ('sat', 726, 1014, 25443, 6, 726, 0, 'd861f2e124d0'),
    ],
    "random_3sat_seed6": [
        ('unsat', 3277, 3979, 107090, 27, 3269, 1969, None),
    ],
    "ring6_allgather_2_5_5": [
        ('sat', 131, 809, 16328, 2, 131, 0, '45cb9e1fa589'),
    ],
    "dgx1_allgather_2_2_3": [
        ('sat', 3, 414, 4648, 0, 3, 0, 'bc1dd48641b6'),
    ],
    "dgx1_allgather_2_2_2": [
        ('unsat', 3, 4, 751, 0, 1, 0, None),
    ],
    "dgx1_broadcast_7_3_3_budget100": [
        ('unknown', 100, 740, 9075, 1, 100, 0, None),
    ],
    "dgx1_allgather_rounds_ladder": [
        ('unsat', 3, 4, 1633, 0, 2, 0, None),
        ('sat', 15, 569, 6293, 0, 14, 0, 'e63b6f70da25'),
        ('unsat', 15, 569, 6293, 0, 14, 0, None),
        ('sat', 15, 1600, 8698, 0, 14, 0, 'c809d0d088ef'),
        ('sat', 15, 2503, 11103, 0, 14, 0, '2d5c3c1cd469'),
        ('sat', 15, 2983, 13508, 0, 14, 0, 'e63b6f70da25'),
    ],
    "dgx1_broadcast_rounds_ladder": [
        ('unknown', 40, 394, 5001, 0, 40, 0, None),
        ('sat', 48, 1674, 7912, 0, 48, 0, 'd0158832b043'),
        ('unknown', 108, 1885, 13289, 0, 108, 0, None),
        ('sat', 112, 3190, 16273, 0, 112, 0, '7e1d726695a6'),
        ('sat', 137, 4386, 20011, 0, 137, 0, '6ad0d8eb2538'),
    ],
    "random_3sat_seed2_budget7000": [
        ('unknown', 7000, 9997, 234592, 45, 7000, 4516, None),
    ],
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if "budget7000" in name else name
        for name in CASES
    ],
)
def test_trajectory_is_unchanged(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: build() for name, build in CASES.items()}, width=100)
