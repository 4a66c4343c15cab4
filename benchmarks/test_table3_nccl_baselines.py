"""Table 3: NCCL's hand-written collectives and their chunks/steps/rounds.

The benchmark builds each NCCL/RCCL baseline schedule, checks it lands on
the paper's (C, S, R) row, and times construction + verification (the
baselines run through the same machinery as synthesized algorithms).
"""

import pytest

from conftest import report
from repro.baselines import (
    nccl_allgather,
    nccl_allreduce,
    nccl_broadcast,
    nccl_reduce,
    nccl_reducescatter,
    rccl_allgather,
    rccl_allreduce,
)
from repro.evaluation import format_table, table3_rows


def test_table3_rows_match_paper(benchmark):
    rows = benchmark(table3_rows)
    report("Table 3: NCCL hand-written collectives (C, S, R)", format_table(rows))
    triples = {(r["collective"], r["C"], r["S"], r["R"]) for r in rows}
    assert ("Allgather/Reducescatter", 6, 7, 7) in triples
    assert ("Allreduce", 48, 14, 14) in triples
    assert ("Broadcast/Reduce", 6, 7, 7) in triples


@pytest.mark.parametrize(
    "builder,expected",
    [
        (nccl_allgather, (6, 7, 7)),
        (nccl_reducescatter, (6, 7, 7)),
        (nccl_allreduce, (48, 14, 14)),
        (rccl_allgather, (2, 7, 7)),
        (rccl_allreduce, (16, 14, 14)),
    ],
    ids=["nccl_allgather", "nccl_reducescatter", "nccl_allreduce", "rccl_allgather", "rccl_allreduce"],
)
def test_baseline_construction(benchmark, builder, expected):
    algorithm = benchmark(builder)
    assert algorithm.signature() == expected


@pytest.mark.parametrize("multiplier", [1, 2, 4])
def test_pipelined_broadcast_family(benchmark, multiplier):
    algorithm = benchmark.pedantic(nccl_broadcast, args=(multiplier,), rounds=1, iterations=1)
    assert algorithm.signature() == (6 * multiplier, 6 + multiplier, 6 + multiplier)


def test_pipelined_reduce(benchmark):
    algorithm = benchmark.pedantic(nccl_reduce, args=(2,), rounds=1, iterations=1)
    assert algorithm.signature() == (12, 8, 8)
    assert algorithm.combining
