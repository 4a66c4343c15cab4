"""Benchmarks of the SAT substrate itself.

These measure the components the synthesis pipeline spends its time in:
CNF encoding of a DGX-1 instance, loading that CNF into the solver, CDCL
solving of structured SAT/UNSAT formulas (reported as propagations per
second next to the conflict count, which must not move when only the cost
per step changes), and end-to-end synthesis of the cheap Table 4 rows (which
double as a regression guard on solver performance).
"""

import time

import pytest

from conftest import report
from repro.core import ScclEncoding, make_instance, synthesize
from repro.engine import SweepRequest, make_dispatcher
from repro.solver import CNF, SATSolver, SolveResult
from repro.topology import dgx1, ring


def pigeonhole(holes: int) -> CNF:
    cnf = CNF()
    var = {(p, h): cnf.new_var() for p in range(holes + 1) for h in range(holes)}
    for p in range(holes + 1):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


def test_encode_dgx1_allgather(benchmark):
    instance = make_instance("Allgather", dgx1(), 3, 4, 4)

    def run():
        encoder = ScclEncoding(instance)
        encoder.encode()
        return encoder

    encoder = benchmark(run)
    report(
        "Encoding throughput (DGX-1 Allgather C=3 S=4)",
        f"{encoder.stats.variables} vars, {encoder.stats.clauses} clauses",
    )


def test_load_dgx1_allgather(benchmark):
    cnf = ScclEncoding(make_instance("Allgather", dgx1(), 3, 4, 4)).encode().cnf
    seconds = []

    def run():
        solver = SATSolver()
        start = time.perf_counter()
        loaded = solver.add_cnf(cnf)
        seconds.append(time.perf_counter() - start)
        return loaded

    # A fixed, small number of rounds: this file is collected by the tier-1 run.
    assert benchmark.pedantic(run, rounds=9, iterations=1)
    report(
        "CNF load throughput (DGX-1 Allgather C=3 S=4)",
        f"{len(cnf.clauses)} clauses, {cnf.num_vars} vars: "
        f"{len(cnf.clauses) / min(seconds):,.0f} clauses/s (best of {len(seconds)})",
    )


def _report_search(title, solver):
    stats = solver.stats
    report(
        title,
        f"{stats.conflicts} conflicts, {stats.decisions} decisions, "
        f"{stats.propagations} propagations: "
        f"{stats.propagations / stats.solve_time:,.0f} props/s (last run)",
    )


@pytest.mark.parametrize("holes", [5, 6])
def test_cdcl_unsat_pigeonhole(benchmark, holes):
    def run():
        solver = SATSolver()
        solver.add_cnf(pigeonhole(holes))
        return solver, solver.solve()

    solver, result = benchmark(run)
    assert result is SolveResult.UNSAT
    _report_search(f"CDCL refutation (pigeonhole, {holes} holes)", solver)


def test_cdcl_structured_sat(benchmark):
    instance = make_instance("Allgather", ring(6), 2, 5, 5)
    cnf = ScclEncoding(instance).encode().cnf

    def run():
        solver = SATSolver()
        solver.add_cnf(cnf)
        return solver, solver.solve()

    solver, result = benchmark(run)
    assert result is SolveResult.SAT
    _report_search("CDCL model finding (ring:6 Allgather C=2 S=5 R=5)", solver)


@pytest.mark.parametrize(
    "chunks,steps,rounds",
    [(1, 2, 2), (2, 2, 3), (2, 3, 3)],
    ids=lambda v: str(v),
)
def test_synthesis_cheap_dgx1_rows(benchmark, chunks, steps, rounds):
    instance = make_instance("Allgather", dgx1(), chunks, steps, rounds)

    def run():
        return synthesize(instance)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.is_sat


# The exhaustive fixed-S candidate sweep used by the incremental-vs-cold
# ablation: every (R, C) for S=2, k=2 on the DGX-1 capped at C<=2, probed to
# completion (no early stop) so both strategies do the same logical work.
ABLATION_SWEEP = SweepRequest(
    collective="Allgather",
    topology=dgx1(),
    steps=2,
    candidates=((3, 2), (2, 1), (4, 2), (3, 1), (4, 1)),
    stop_at_first_sat=False,
)


def test_incremental_vs_cold_sweep(benchmark):
    """Ablation: assumption-based incremental probing vs. cold re-encoding.

    The same sweep loop runs both: the inline executor encodes once per
    candidate, the family executor once per step count and probes (C, R)
    frames through selector assumptions on a persistent solver.
    """
    cold = make_dispatcher("serial").sweep(ABLATION_SWEEP)

    incremental = benchmark.pedantic(
        lambda: make_dispatcher("incremental").sweep(ABLATION_SWEEP),
        rounds=1, iterations=1,
    )

    assert [r.status for r in incremental.results] == [r.status for r in cold.results]
    assert incremental.stats.encode_calls < cold.stats.encode_calls
    cold_time = sum(r.total_time for r in cold.results)
    incr_time = sum(r.total_time for r in incremental.results)
    report(
        "Incremental vs cold candidate sweep (DGX-1 Allgather S=2, 5 candidates)",
        f"cold:        {cold.stats.encode_calls} encodes, "
        f"{cold.stats.solver_calls} solver calls, {cold_time:.2f}s\n"
        f"incremental: {incremental.stats.encode_calls} encodes, "
        f"{incremental.stats.solver_calls} solver calls, {incr_time:.2f}s",
    )
