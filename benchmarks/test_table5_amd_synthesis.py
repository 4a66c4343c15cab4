"""Table 5: synthesized Gigabyte Z52 (8x AMD MI50) collectives.

Same structure as the Table 4 benchmark, on the AMD ring topology.  The AMD
instances are smaller (in-capacity 2 per GPU), so more of the paper's rows
run within the default budget.
"""

import pytest

from conftest import full_scale, report, synthesis_budget
from repro.core import allreduce_from_allgather, make_instance, pareto_synthesize, synthesize
from repro.evaluation import format_table
from repro.topology import amd_z52

TOPOLOGY = amd_z52()

# (collective, C, S, R, expected_optimality, needs_full_scale)
TABLE5_ROWS = [
    ("Allgather", 1, 4, 4, "Latency", False),
    ("Allgather", 2, 7, 7, "Bandwidth", False),
    ("Allgather", 2, 4, 7, "Both", True),
    ("Broadcast", 2, 4, 4, "Latency", False),
    ("Broadcast", 4, 5, 5, "", False),
    ("Broadcast", 6, 6, 6, "", True),
    ("Gather", 1, 4, 4, "Latency", False),
    ("Gather", 2, 4, 7, "Both", True),
    ("Alltoall", 8, 4, 8, "Both", True),
]


def _row_id(row):
    collective, c, s, r, _opt, full = row
    suffix = "_full" if full else ""
    return f"{collective}_c{c}_s{s}_r{r}{suffix}"


@pytest.mark.parametrize("row", TABLE5_ROWS, ids=_row_id)
def test_table5_row(benchmark, row):
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
        f"Table 5 row: {collective} ({chunks},{steps},{rounds}) {optimality}",
        f"synthesis time {result.total_time:.2f}s, "
        f"{result.encoding_stats['variables']} vars, {result.encoding_stats['clauses']} clauses",
    )


def test_table5_allreduce_rows_derive_from_allgather(benchmark):
    """Allreduce (8,8,8) latency row = Allgather (1,4,4) doubled."""

    def run():
        result = synthesize(
            make_instance("Allgather", TOPOLOGY, 1, 4, 4), time_limit=synthesis_budget()
        )
        assert result.is_sat
        allreduce = allreduce_from_allgather(result.algorithm)
        allreduce.verify()
        return allreduce

    allreduce = benchmark.pedantic(run, rounds=1, iterations=1)
    assert allreduce.signature() == (8, 8, 8)


def test_table5_pareto_enumeration_allgather_k0(benchmark):
    """Algorithm 1 on the AMD topology: (1,4,4) then (2,7,7) ends the enumeration."""
    if not full_scale():
        pytest.skip("full k=0 enumeration reaches the (2,7,7) instance; set SCCL_FULL=1")

    def run():
        return pareto_synthesize(
            "Allgather", TOPOLOGY, k=0, max_steps=7,
            time_limit=synthesis_budget(),
        )

    frontier = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Table 5 (Allgather, k=0 enumeration)", format_table(frontier.table_rows()))
    signatures = [p.signature for p in frontier.points]
    assert signatures[0] == (1, 4, 4)
    assert (2, 7, 7) in signatures
