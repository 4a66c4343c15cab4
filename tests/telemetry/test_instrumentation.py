"""End-to-end telemetry tests: the instrumented hot path under every
strategy, metric/stat agreement (one writer per fact), worker-span
re-parenting, and the no-op overhead guard.
"""

import json
import os
import time

import pytest

from repro.core import pareto_synthesize
from repro.telemetry import (
    NULL_TRACER,
    Metrics,
    Tracer,
    get_tracer,
    iter_spans,
    set_metrics,
    span_coverage,
    tracing,
)
from repro.topology import line, ring


def _spans(tracer, name):
    return [s for s in iter_spans(tracer.roots()) if s.name == name]


@pytest.fixture
def metrics():
    """A fresh process-global registry, restored afterwards."""
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


# ----------------------------------------------------------------------
# Serial / incremental: spans mirror the engine's own counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["serial", "incremental"])
def test_sweep_spans_match_engine_stats(strategy, metrics):
    with tracing() as tracer:
        frontier = pareto_synthesize(
            "Allgather", ring(4), k=0, max_steps=4, strategy=strategy
        )
    stats = frontier.engine_stats

    (pareto,) = _spans(tracer, "pareto")
    assert pareto.attrs["strategy"] == strategy
    assert pareto.attrs["points"] == len(frontier.points)
    # One sweep span per probed step count, all nested under the pareto span.
    sweeps = _spans(tracer, "sweep")
    assert sweeps and all(s.attrs["strategy"] == strategy for s in sweeps)
    assert {id(c) for c in pareto.children} >= {id(s) for s in sweeps}

    probes = _spans(tracer, "probe")
    replays = [p for p in probes if p.attrs.get("cache_hit")]
    assert len(probes) - len(replays) == stats["candidates_probed"]
    for probe in probes:
        assert {"collective", "C", "S", "R", "verdict"} <= set(probe.attrs)
    # Every solver probe carries its phase children.
    solved = [p for p in probes if not p.attrs.get("cache_hit")]
    assert all(any(c.name == "solve" for c in p.children) for p in solved)

    # Metric registry and committed stats agree exactly on these paths.
    assert metrics.total("repro_solver_calls_total") == stats["solver_calls"]
    assert (
        metrics.total("repro_bounds_candidates_total", action="probed")
        == stats["candidates_probed"]
    )
    assert (
        metrics.total("repro_bounds_candidates_total", action="pruned")
        == stats["probes_pruned"]
    )


# ----------------------------------------------------------------------
# Parallel: worker spans are re-parented under the dispatching sweep span
# ----------------------------------------------------------------------
def test_parallel_worker_spans_reparented(metrics):
    # bounds="off" keeps every candidate, so multi-candidate sweeps are
    # guaranteed and the pool executor has probes to overlap.
    with tracing() as tracer:
        frontier = pareto_synthesize(
            "Allgather", ring(4), k=0, max_steps=4,
            strategy="parallel", max_workers=2, bounds="off",
        )
    # What the loop awaited hangs off its sweep spans; a loser that was
    # already running when its sweep ended is kept under the pool span.
    sweeps = _spans(tracer, "sweep")
    probes = [p for p in iter_spans(sweeps) if p.name == "probe"]
    assert len(probes) == frontier.engine_stats["candidates_probed"]
    losers = [p for p in iter_spans(_spans(tracer, "pool")) if p.name == "probe"]
    assert len(probes) + len(losers) == len(_spans(tracer, "probe"))
    # Probe spans recorded inside pool workers keep their worker pid, and
    # each carries its phase children.
    pool_probes = [p for p in probes if p.pid != os.getpid()]
    assert pool_probes, "no probe spans came back from pool workers"
    for probe in pool_probes:
        assert any(c.name == "solve" for c in probe.children)
    # The loop counts what it awaited; the workers count nothing.
    assert (
        metrics.total("repro_solver_calls_total")
        == frontier.engine_stats["solver_calls"]
    )


def test_speculative_sweep_many_spans(metrics):
    with tracing() as tracer:
        frontier = pareto_synthesize(
            "Allgather", ring(4), k=0, max_steps=4,
            strategy="speculative", max_workers=2, bounds="off",
        )
    assert frontier.points
    sweeps = _spans(tracer, "sweep")
    # The loop opens a sweep span only when a step count becomes current,
    # so there is one per sweep that ran, each holding that step count's
    # probes — including the ones a worker solved ahead of time.
    assert sweeps and all(s.attrs["strategy"] == "speculative" for s in sweeps)
    for sweep in sweeps:
        probes = [c for c in sweep.children if c.name == "probe"]
        assert probes and all(p.attrs["S"] == sweep.attrs["S"] for p in probes)
    # Only awaited results are accounted, so registry and stats agree.
    assert (
        metrics.total("repro_solver_calls_total")
        == frontier.engine_stats["solver_calls"]
    )
    assert (
        metrics.total("repro_bounds_candidates_total", action="probed")
        == frontier.engine_stats["candidates_probed"]
    )


# ----------------------------------------------------------------------
# Concurrent sweeps: one registry, no lost increments
# ----------------------------------------------------------------------
def test_metrics_under_concurrent_sweeps(metrics):
    import threading

    threads, stats = 8, [None] * 8
    barrier = threading.Barrier(threads)

    def work(index):
        barrier.wait()
        frontier = pareto_synthesize(
            "Gather", line(3), k=0, max_steps=4, strategy="serial"
        )
        stats[index] = frontier.engine_stats

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    assert all(s is not None for s in stats)
    assert metrics.total("repro_solver_calls_total") == sum(
        s["solver_calls"] for s in stats
    )
    assert metrics.total("repro_bounds_candidates_total", action="probed") == sum(
        s["candidates_probed"] for s in stats
    )


# ----------------------------------------------------------------------
# Chrome trace + coverage on a real sweep
# ----------------------------------------------------------------------
def test_a_traced_pareto_run_writes_a_perfetto_trace(tmp_path):
    path = tmp_path / "trace.json"
    tracer = Tracer()
    started = time.perf_counter()
    with tracing(tracer):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=4, strategy="serial")
    wall = time.perf_counter() - started
    tracer.write_chrome_trace(path)
    assert frontier.points
    assert span_coverage(tracer.roots(), "probe") > 0.0
    trace = json.loads(path.read_text())
    assert trace["traceEvents"]
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"pareto", "sweep", "probe", "solve"} <= names
    # Per-candidate spans account for nearly all of the sweep wall clock.
    probe_s = sum(
        e["dur"] for e in trace["traceEvents"] if e["name"] == "probe"
    ) / 1e6
    assert probe_s <= wall * 1.05


# ----------------------------------------------------------------------
# One writer per fact: the sweep loop, or a direct synthesize() call
# ----------------------------------------------------------------------
def _solve_count(metrics):
    (hist,) = metrics.snapshot()["histograms"].values()
    return hist["count"]


def test_budget_bound_sweep_counts_the_retry_once(metrics):
    """DGX-1 Broadcast under 100 conflicts: one S=3 frame exhausts and is
    retried on the exact formula.  Both solver calls are counted once, by
    the loop, and the rest of S=3 is counted where it is solved."""
    from repro.topology import dgx1

    frontier = pareto_synthesize(
        "Broadcast", dgx1(), k=1, max_steps=3, max_chunks=8,
        conflict_limit=100, strategy="incremental",
    )
    stats = frontier.engine_stats
    assert stats["unknown_retries"] == 1
    assert metrics.total("repro_solver_calls_total") == stats["solver_calls"]
    assert _solve_count(metrics) == stats["solver_calls"]


def test_a_direct_family_result_writes_no_series(metrics):
    from repro.engine import FamilyExecutor, SweepRequest
    from repro.engine.dispatch import make_probe

    probe = make_probe(SweepRequest("Allgather", ring(4), 2, ()), 3, 1)
    family = FamilyExecutor(probe.request)
    family.prefetch([probe])
    assert family.result(probe).is_sat
    assert metrics.snapshot()["counters"] == {}
    assert metrics.snapshot()["histograms"] == {}


def test_a_direct_synthesize_writes_one_solver_call(metrics, tmp_path):
    from repro.core import make_instance, synthesize
    from repro.engine import AlgorithmCache

    instance = make_instance("Allgather", ring(4), 1, 2, 3)
    cache = AlgorithmCache(tmp_path)
    assert synthesize(instance, cache=cache).is_sat
    assert metrics.total("repro_solver_calls_total") == 1
    assert _solve_count(metrics) == 1
    # A replay runs no solver and counts none.
    assert synthesize(instance, cache=cache).cache_hit
    assert metrics.total("repro_solver_calls_total") == 1


# ----------------------------------------------------------------------
# Zero-overhead-when-disabled guard
# ----------------------------------------------------------------------
def test_disabled_tracing_overhead_guard():
    """Instrumentation must cost <=5% of sweep wall clock when disabled.

    Measured structurally rather than by racing two sweeps (which would
    flake on a loaded runner): the per-site cost of a disabled span is
    microbenchmarked, multiplied by the number of sites a traced run of
    the same sweep actually hits, and compared against that sweep's wall
    clock.
    """
    assert get_tracer() is NULL_TRACER

    calls = 20_000
    started = time.perf_counter()
    for _ in range(calls):
        with get_tracer().span("probe", collective="Allgather", C=1, S=2, R=2):
            pass
    per_site = (time.perf_counter() - started) / calls

    with tracing() as tracer:
        started = time.perf_counter()
        pareto_synthesize("Allgather", ring(4), k=0, max_steps=4, strategy="serial")
        wall = time.perf_counter() - started
    sites = sum(1 for _ in iter_spans(tracer.roots()))
    assert sites > 0
    assert per_site * sites <= 0.05 * wall, (
        f"no-op tracing would cost {per_site * sites:.4f}s over {sites} spans "
        f"on a {wall:.4f}s sweep"
    )
