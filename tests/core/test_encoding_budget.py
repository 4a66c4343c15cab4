"""Exact formula and search budgets of four benchmark rows.

Solving is deterministic, so a row's variables, clauses and conflicts are
numbers, not measurements: a change that lets dead Booleans back into the
formula or loses the symmetry order fails here on a count, in tier-1,
before any wall-clock benchmark could notice.  The seed columns are what
the unpruned encoder produced for the same rows (``bench/`` at PR 15).

To re-record after a change that is *meant* to alter the formula, print
``BUDGETS`` from ``measure`` below and say why in the change.
"""

import pytest

from repro.core import make_instance, synthesize
from repro.topology import amd_z52, dgx1

#: row -> (verdict, variables, clauses, conflicts)
BUDGETS = {
    # Seven interchangeable chunks: the symmetry order does the work
    # (725 conflicts, 1 709 variables, 4 586 clauses at the seed).
    ("Broadcast", "dgx1", 7, 3, 3): ("unsat", 1354, 3066, 253),
    # 21 chunks into the root at 6 per round need 4 rounds: the formula is
    # the constant-true unit every context starts with plus the empty clause
    # (150 conflicts without a verdict, 3 279 variables at the seed).
    ("Gather", "dgx1", 3, 3, 3): ("unsat", 1, 2, None),
    # Domain-tight time variables (3 889 variables, 10 881 clauses at the seed).
    ("Allgather", "dgx1", 2, 3, 3): ("sat", 3089, 7294, 31),
    # A long chain: eight symmetric chunks over seven steps
    # (155 conflicts, 1 581 variables, 4 679 clauses at the seed).
    ("Broadcast", "amd_z52", 8, 7, 7): ("sat", 1177, 3190, 46),
}
TOPOLOGIES = {"dgx1": dgx1, "amd_z52": amd_z52}


def measure(row):
    collective, topology, chunks, steps, rounds = row
    result = synthesize(
        make_instance(collective, TOPOLOGIES[topology](), chunks, steps, rounds)
    )
    return (
        result.status.value,
        result.encoding_stats["variables"],
        result.encoding_stats["clauses"],
        result.solver_stats.get("conflicts"),
    )


@pytest.mark.parametrize("row", BUDGETS, ids=lambda row: "-".join(map(str, row)))
def test_row_stays_within_its_recorded_budget(row):
    assert measure(row) == BUDGETS[row]


def test_broadcast_symmetry_keeps_the_issue_bound():
    # The acceptance bound of the change that added the symmetry order.
    assert BUDGETS[("Broadcast", "dgx1", 7, 3, 3)][3] <= 300
