"""Table 4: synthesized DGX-1 collectives (C, S, R, optimality, synthesis time).

Each benchmark runs the actual SMT-based synthesis for one row of Table 4
and asserts the row's (C, S, R) is reproduced.  The pure-Python CDCL solver
is orders of magnitude slower than Z3, so only the rows that complete within
the default budget run unconditionally; the remaining rows (marked ``full``)
require ``SCCL_FULL=1``.  Timings land in the pytest-benchmark report, which
is this reproduction's analogue of the paper's "Time" column.
"""

import pytest

from conftest import full_scale, report, synthesis_budget
from repro.core import allreduce_from_allgather, make_instance, pareto_synthesize, synthesize
from repro.evaluation import PAPER_TABLE4, format_table
from repro.topology import dgx1

TOPOLOGY = dgx1()

# (collective, C, S, R, expected_optimality, needs_full_scale)
TABLE4_ROWS = [
    ("Allgather", 1, 2, 2, "Latency", False),
    ("Allgather", 2, 3, 3, "", False),
    ("Allgather", 3, 4, 4, "", False),
    ("Allgather", 4, 5, 5, "", False),
    ("Allgather", 5, 6, 6, "", False),
    ("Allgather", 2, 2, 3, "Latency", False),
    ("Allgather", 6, 7, 7, "Bandwidth", True),
    ("Allgather", 6, 3, 7, "Bandwidth", True),
    ("Broadcast", 2, 2, 2, "Latency", False),
    ("Broadcast", 6, 3, 3, "", True),
    ("Gather", 1, 2, 2, "Latency", False),
    ("Gather", 2, 3, 3, "", False),
    ("Alltoall", 8, 2, 3, "Latency", True),
]


def _row_id(row):
    collective, c, s, r, _opt, full = row
    suffix = "_full" if full else ""
    return f"{collective}_c{c}_s{s}_r{r}{suffix}"


@pytest.mark.parametrize("row", TABLE4_ROWS, ids=_row_id)
def test_table4_row(benchmark, row):
    collective, chunks, steps, rounds, optimality, needs_full = row
    if needs_full and not full_scale():
        pytest.skip("large instance; set SCCL_FULL=1 to run at paper scale")
    instance = make_instance(collective, TOPOLOGY, chunks, steps, rounds)

    def run():
        return synthesize(instance, time_limit=synthesis_budget())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.is_unsat, f"paper row {row} must be satisfiable"
    if result.is_unknown:
        pytest.skip(f"time budget exhausted after {result.total_time:.0f}s (status unknown)")
    algorithm = result.algorithm
    algorithm.verify()
    assert algorithm.signature() == (chunks, steps, rounds)
    report(
        f"Table 4 row: {collective} ({chunks},{steps},{rounds}) {optimality}",
        f"synthesis time {result.total_time:.2f}s, "
        f"{result.encoding_stats['variables']} vars, {result.encoding_stats['clauses']} clauses, "
        f"{int(result.solver_stats.get('conflicts', 0))} conflicts",
    )


def test_table4_allreduce_rows_derive_from_allgather(benchmark):
    """Allreduce rows of Table 4 are the Allgather rows doubled (Section 3.5)."""

    def run():
        rows = []
        for (ag_c, ag_s, ag_r) in [(1, 2, 2), (2, 3, 3)]:
            result = synthesize(
                make_instance("Allgather", TOPOLOGY, ag_c, ag_s, ag_r),
                time_limit=synthesis_budget(),
            )
            assert result.is_sat
            allreduce = allreduce_from_allgather(result.algorithm)
            allreduce.verify()
            rows.append(allreduce.signature())
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (8, 4, 4) in rows      # paper row: Allreduce 8 4 4 (Latency)
    assert (16, 6, 6) in rows     # paper row: Allreduce 16 6 6


def test_table4_pareto_enumeration_allgather_k0(benchmark):
    """Run Algorithm 1 itself (k=0) and check the reported rows are the paper's prefix."""
    max_steps = 7 if full_scale() else 4

    def run():
        return pareto_synthesize(
            "Allgather",
            TOPOLOGY,
            k=0,
            max_steps=max_steps,
            time_limit=synthesis_budget(),
        )

    frontier = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Table 4 (Allgather, k=0 enumeration)",
        format_table(frontier.table_rows()),
    )
    got = [(p.chunks_per_node, p.steps, p.rounds) for p in frontier.points]
    expected_prefix = [(c, s, r) for (c, s, r, _lab) in PAPER_TABLE4["Allgather"][: len(got)]]
    assert got == expected_prefix
    assert frontier.points[0].latency_optimal
