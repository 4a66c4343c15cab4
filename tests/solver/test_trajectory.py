"""Golden search trajectories of the CDCL core.

``bench/expected.json`` pins verdicts and ``proved`` flags under conflict
budgets, so a change to ``repro.solver.sat`` that is meant to make a step
cheaper must not change which steps are taken.  Each case below is pinned
to the numbers the solver produced (verdict, conflicts, decisions,
propagations, restarts, learned and deleted clauses, hash of the model): a
different decision, a reordered watch list or a differently ordered
activity heap shows up here as a changed count.

The cases come in two groups.  Formulas written out clause by clause
(pigeonhole, random 3-SAT) depend on the solver alone and keep the numbers
recorded before its data layout was rewritten.  Formulas from
``ScclEncoding`` also move when the encoder changes the formula; those are
re-recorded then, and the first group staying put shows the solver was not
touched.

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


def frames(cnf, probes):
    """One solver over a sequence of ``(assumptions, conflict_limit)`` frames."""
    solver = SATSolver()
    solver.add_cnf(cnf)
    return [
        snapshot(solver, solver.solve(assumptions, conflict_limit=limit))
        for assumptions, limit in probes
    ]


def rounds_ladder(collective, chunks, steps, budget, probes):
    """One solver probed under assumptions, the family executor's pattern:
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
    # Refuted by the encoder's cut arithmetic: the formula is the empty clause.
    "dgx1_allgather_2_2_2": lambda: one_shot(synthesis_cnf("Allgather", dgx1(), 2, 2, 2)),
    "dgx1_allgather_3_2_4": lambda: one_shot(synthesis_cnf("Allgather", dgx1(), 3, 2, 4)),
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
    # Two rescales, in the first frame and in the third, with an assumption
    # frame between them: heap state built in one solve() call is carried
    # into the next and replayed by the rescale there.
    "random_3sat_seed4_frames_two_rescales": lambda: frames(
        random_3sat_cnf(random.Random(4), 175, 745),
        (((), 5000), ([3, -7], 2500), ((), 2500)),
    ),
}

# Formulas written out clause by clause: recorded at commit 2eb871e, before
# the literal-indexed rewrite of sat.py, and never since.  They are the
# evidence that a change to the encoder left the solver alone.
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
    "random_3sat_seed2_budget7000": [
        ('unknown', 7000, 9997, 234592, 45, 7000, 4516, None),
    ],
}

# Recorded at commit cf36e7c, before the decision heap kept unbumped
# variables apart and deferred stale copies to the next rescale.
GOLDEN["random_3sat_seed4_frames_two_rescales"] = [
    ('unknown', 5000, 6448, 169477, 30, 5000, 3085, None),
    ('unknown', 7500, 10766, 247946, 50, 7500, 5529, None),
    ('unknown', 10000, 14933, 326835, 70, 10000, 8005, None),
]

# Formulas from ScclEncoding: re-recorded when the encoder started pruning
# (cut arithmetic, chunk-symmetry order, domain-tight time variables), which
# changes the formula and so the search.  A change to the encoder re-records
# these and only these.
GOLDEN.update({
    "ring6_allgather_2_5_5": [
        ('sat', 80, 630, 8956, 1, 78, 0, '02462224374c'),
    ],
    "dgx1_allgather_2_2_3": [
        ('sat', 3, 328, 3074, 0, 3, 0, 'bc598fe47a02'),
    ],
    "dgx1_allgather_2_2_2": [
        ('unsat', 0, 0, 1, 0, 0, 0, None),
    ],
    "dgx1_allgather_3_2_4": [
        ('unsat', 21, 134, 6047, 0, 13, 0, None),
    ],
    "dgx1_broadcast_7_3_3_budget100": [
        ('unknown', 100, 598, 7327, 1, 100, 0, None),
    ],
    "dgx1_allgather_rounds_ladder": [
        ('unsat', 3, 4, 753, 0, 2, 0, None),
        ('sat', 19, 484, 4872, 0, 18, 0, 'f7e33c23d04d'),
        ('unsat', 19, 484, 4872, 0, 18, 0, None),
        ('sat', 19, 1196, 6613, 0, 18, 0, '9d83b73cdcc2'),
        ('sat', 19, 1820, 8354, 0, 18, 0, '15c6b7853bb2'),
        ('sat', 19, 2190, 10095, 0, 18, 0, 'f7e33c23d04d'),
    ],
    "dgx1_broadcast_rounds_ladder": [
        ('unknown', 40, 403, 4695, 0, 40, 0, None),
        ('sat', 55, 1462, 10240, 0, 55, 0, 'ce63a0b735fa'),
        ('unknown', 115, 1608, 15317, 0, 115, 0, None),
        ('sat', 120, 2543, 17522, 0, 120, 0, '7567622b45d3'),
        ('sat', 141, 3536, 23717, 0, 141, 0, '8460c5eea040'),
    ],
})


SLOW = {"random_3sat_seed2_budget7000", "random_3sat_seed4_frames_two_rescales"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
        for name in CASES
    ],
)
def test_trajectory_is_unchanged(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: build() for name, build in CASES.items()}, width=100)
