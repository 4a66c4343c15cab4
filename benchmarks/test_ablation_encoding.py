"""Encoding ablation (Section 5.4.3) and the sweep-strategy ablation.

The paper reports that the naive encoding (one Boolean per send and step)
did not finish the 24-chunk Alltoall within 60 minutes while the split
encoding needed ~2 minutes.  The naive encoder is gone from the package:
the explicit-state reference in ``tests/oracle`` is the second opinion on
verdicts now, and the README records the two encoders' last measured
formula sizes.  What is timed here is the split encoding on a ring and a
DGX-1 instance, through ``solve_encoding`` (encode, solve, decode, verify).

``test_sweep_strategy_ablation`` additionally races the engine's sweep
strategies (serial / incremental / parallel / speculative) on a Table-4
smoke instance and writes ``BENCH_sweep.json`` — wall clock, engine stats
and the encode/solve/verify phase split per strategy, so perf regressions
in the sweep hot path are attributable.
"""

import time

import pytest

from conftest import (
    bench_dir,
    cpu_parallelism,
    merge_bench_json,
    phase_totals,
    report,
    synthesis_budget,
)
from repro.core import ScclEncoding, make_instance, solve_encoding
from repro.engine import STRATEGIES
from repro.topology import dgx1, ring

SMALL_INSTANCE = make_instance("Allgather", ring(6), 1, 3, 3)
MEDIUM_INSTANCE = make_instance("Allgather", dgx1(), 2, 3, 3)


def test_small_instance_synthesis(benchmark):
    def run():
        return solve_encoding(ScclEncoding(SMALL_INSTANCE), time_limit=synthesis_budget())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.is_sat
    result.algorithm.verify()
    report(
        "Encoding ablation (ring6 Allgather, sccl)",
        f"time {result.total_time:.2f}s, vars {result.encoding_stats['variables']}, "
        f"clauses {result.encoding_stats['clauses']}",
    )


def test_medium_instance_synthesis(benchmark):
    def run():
        return solve_encoding(ScclEncoding(MEDIUM_INSTANCE), time_limit=synthesis_budget())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    if result.is_unknown:
        pytest.skip("budget exhausted (recorded as unknown, not a failure)")
    assert result.is_sat


# ----------------------------------------------------------------------
# Sweep-strategy ablation -> BENCH_sweep.json
# ----------------------------------------------------------------------
#: The Table-4 smoke configuration: a DGX-1 Allgather enumeration whose
#: high-chunk-count head candidates are budget-bound (the shape of the
#: paper's slow Table 4/5 rows), so cross-candidate and cross-S overlap is
#: what decides wall clock rather than raw solver speed.  The budget is a
#: conflict limit, so every strategy does the same work on any host: points
#: (2,2,3) and (4,3,5), one UNKNOWN retry under ``incremental``.
SWEEP_SMOKE = dict(k=4, max_steps=3, max_chunks=6, conflict_limit=1000)
SWEEP_STRATEGIES = STRATEGIES


def _metrics_snapshot(metrics) -> dict:
    """The Prometheus series BENCH consumers cross-check against /v1/metrics."""
    return {
        "solver_calls": int(metrics.total("repro_solver_calls_total")),
        "cache_hits": int(metrics.total("repro_cache_lookups_total", outcome="hit")),
        "bounds_probed": int(
            metrics.total("repro_bounds_candidates_total", action="probed")
        ),
        "bounds_pruned": int(
            metrics.total("repro_bounds_candidates_total", action="pruned")
        ),
        "bounds_cut": int(metrics.total("repro_bounds_candidates_total", action="cut")),
    }


def _run_sweep_strategy(strategy: str) -> dict:
    from repro.core import pareto_synthesize
    from repro.telemetry import Metrics, iter_spans, set_metrics, span_coverage, tracing

    metrics = Metrics()
    previous = set_metrics(metrics)
    try:
        started = time.perf_counter()
        with tracing() as tracer:
            frontier = pareto_synthesize(
                "Allgather",
                dgx1(),
                k=SWEEP_SMOKE["k"],
                max_steps=SWEEP_SMOKE["max_steps"],
                max_chunks=SWEEP_SMOKE["max_chunks"],
                conflict_limit=SWEEP_SMOKE["conflict_limit"],
                strategy=strategy,
                max_workers=2,
            )
        wall = time.perf_counter() - started
    finally:
        set_metrics(previous)
    row = {
        "wall_s": round(wall, 3),
        "points": [[p.chunks_per_node, p.steps, p.rounds] for p in frontier.points],
        "engine_stats": frontier.engine_stats,
        "phases": phase_totals(tracer),
        # Shared-prefix encodings built: the family's spans say so.
        "family_encodes": sum(
            1 for span in iter_spans(tracer.roots())
            if span.name == "encode" and span.attrs.get("family")
        ),
        "probe_coverage": round(span_coverage(tracer.roots(), "probe", total_s=wall), 4),
        "metrics": _metrics_snapshot(metrics),
    }
    if strategy == "speculative":
        # The acceptance-criterion artifact: a Perfetto-loadable trace of the
        # speculative DGX-1 Allgather sweep.
        trace_path = bench_dir() / "trace.json"
        tracer.write_chrome_trace(trace_path)
        row["trace_artifact"] = trace_path.name
    return row


def test_sweep_strategy_ablation():
    """serial vs incremental vs parallel vs speculative on the Table-4 smoke.

    Two classes of claims are checked:

    * **deterministic** (asserted everywhere): the shared-prefix family
      encoding cuts encode *calls* — one per step count — below the serial
      loop's one-per-candidate, and its encode-time split is reported
      separately in the JSON;
    * **wall-clock** (asserted only where the host has real parallelism,
      ``cpu_count >= 2``): the pool executor with lookahead is no slower
      than without and beats the inline executor, because the
      budget-bound head candidates burn their budgets concurrently
      instead of back to back.  On a single-core host the pool can only
      time-slice, so there the numbers are recorded but not asserted.
    """
    rows = {strategy: _run_sweep_strategy(strategy) for strategy in SWEEP_STRATEGIES}

    cores = cpu_parallelism()
    asserted = cores >= 2
    payload = {
        "benchmark": "sweep_strategy_ablation",
        "instance": {
            "collective": "Allgather",
            "topology": "dgx1",
            **{k: v for k, v in SWEEP_SMOKE.items()},
        },
        "cpu_count": cores,
        "wall_clock_asserted": asserted,
        "strategies": rows,
    }
    output = merge_bench_json("BENCH_sweep.json", "strategy_ablation", payload)

    report(
        "BENCH_sweep: sweep-strategy ablation (Allgather on DGX-1 smoke)",
        "\n".join(
            [
                f"{name:12s} {row['wall_s']:7.2f}s  points={len(row['points'])} "
                f"probes={row['engine_stats']['candidates_probed']} "
                f"encodes={row['engine_stats']['encode_calls']} "
                f"(encode {row['phases']['encode_s']:.2f}s, "
                f"solve {row['phases']['solve_s']:.2f}s, "
                f"verify {row['phases']['verify_s']:.2f}s)"
                for name, row in rows.items()
            ]
            + [f"cores={cores} wall-clock asserts {'ON' if asserted else 'OFF'}",
               f"written to : {output}"]
        ),
    )

    # Every strategy reproduces a frontier on the smoke instance.
    for name, row in rows.items():
        assert row["points"], f"{name} found no frontier points"
    # Shared-prefix reuse: one encoding per step count, not per candidate.
    # The engine's ``encode_calls`` also counts the exact formulas of a
    # budget-bound step count (the retry of the frame that exhausted and the
    # probes after it), so the family's own encodes come from its spans.
    serial_stats = rows["serial"]["engine_stats"]
    incremental_stats = rows["incremental"]["engine_stats"]
    family_encodes = rows["incremental"]["family_encodes"]
    assert family_encodes < serial_stats["encode_calls"]
    assert family_encodes <= SWEEP_SMOKE["max_steps"]
    # A budget is spent twice at most once per step count.
    assert incremental_stats.get("unknown_retries", 0) <= SWEEP_SMOKE["max_steps"]

    # Telemetry cross-checks (the /v1/metrics acceptance criterion): the
    # metric registry must agree with the engine's own committed counters.
    # The loop publishes both from what it awaited — a speculative loser is
    # never accounted — so they match exactly under every strategy.
    for name, row in rows.items():
        stats = row["engine_stats"]
        assert row["metrics"]["bounds_probed"] == stats["candidates_probed"], name
        assert row["metrics"]["solver_calls"] == stats["solver_calls"], name
    # Perfetto acceptance: the written speculative trace's per-candidate
    # probe spans cover >=95% of the measured sweep wall clock.
    assert rows["speculative"]["probe_coverage"] >= 0.95, rows["speculative"]
    assert (bench_dir() / rows["speculative"]["trace_artifact"]).exists()

    if asserted:
        # The structural margin on this smoke is ~1.7x vs serial, whose
        # budget-bound head candidates burn back to back; parallel shares
        # the pool and only lacks the lookahead (2-core host, three runs:
        # speculative 1.8-2.2 s, parallel 1.7-2.9 s, serial 3.0-3.9 s).
        # The tolerances leave headroom for shared-runner noise without
        # letting a real regression through.
        spec = rows["speculative"]["wall_s"]
        assert spec <= rows["parallel"]["wall_s"] * 1.25, (
            "speculative sweep slower than the pool without lookahead"
        )
        assert spec <= rows["serial"]["wall_s"] * 1.10, (
            "speculative sweep slower than the serial loop"
        )


# ----------------------------------------------------------------------
# Bound-seeded pruning ablation -> BENCH_sweep.json (bounds_ablation)
# ----------------------------------------------------------------------
#: Deeper enumeration than SWEEP_SMOKE: max_steps=6 keeps the sweep going
#: past the bandwidth-optimal point at S=3, which is exactly the region the
#: frontier cap prunes (every S>=4 candidate costs at least as much as the
#: S=3 bandwidth-optimal SAT, so a seeded run never probes it).  The budget
#: is a *conflict* limit, not wall clock: conflict counts are deterministic
#: per formula, so the seeded/unseeded comparison cannot be skewed by pool
#: contention on a loaded host (every probe here finishes in <500
#: conflicts; the limit is a runaway backstop, not a tuning knob).
SWEEP_BOUNDS = dict(k=4, max_steps=6, max_chunks=4, conflict_limit=20_000)
BOUNDS_MODES = ("baseline", "off")


def _run_bounds_config(strategy: str, bounds: str) -> dict:
    from repro.core import pareto_synthesize
    from repro.telemetry import Metrics, set_metrics, tracing

    metrics = Metrics()
    previous = set_metrics(metrics)
    try:
        started = time.perf_counter()
        with tracing() as tracer:
            frontier = pareto_synthesize(
                "Allgather",
                dgx1(),
                k=SWEEP_BOUNDS["k"],
                max_steps=SWEEP_BOUNDS["max_steps"],
                max_chunks=SWEEP_BOUNDS["max_chunks"],
                conflict_limit=SWEEP_BOUNDS["conflict_limit"],
                strategy=strategy,
                max_workers=2,
                bounds=bounds,
            )
        wall = time.perf_counter() - started
    finally:
        set_metrics(previous)
    stats = frontier.engine_stats
    return {
        "wall_s": round(wall, 3),
        "bounds": frontier.bounds,
        "bound_sources": frontier.bound_sources,
        "points": [[p.chunks_per_node, p.steps, p.rounds] for p in frontier.points],
        "pareto_points": [
            [p.chunks_per_node, p.steps, p.rounds]
            for p in frontier.points
            if p.pareto_optimal
        ],
        "probes_issued": stats.get("candidates_probed", 0),
        "probes_pruned": stats.get("probes_pruned", 0),
        "probes_cut": stats.get("probes_cut", 0),
        "engine_stats": stats,
        "phases": phase_totals(tracer),
        "metrics": _metrics_snapshot(metrics),
    }


def test_bounds_seeding_ablation():
    """Bound-seeded vs unseeded sweeps on a DGX-1 Allgather enumeration.

    The seeded run consults the baseline suite (NCCL Table 3 on DGX-1)
    plus its own earlier SATs before issuing solver probes, so it must

    * probe at least 30% fewer candidates than the unseeded run (the
      S>=4 tail past the bandwidth-optimal point is pruned wholesale),
    * report where its bounds came from (``bound_sources``), and
    * reproduce the identical Pareto frontier — pruning only ever drops
      points the unseeded run marks dominated.

    Both claims are structural (candidate-count arithmetic, not wall
    clock), so they are asserted on every host.
    """
    rows = {
        strategy: {bounds: _run_bounds_config(strategy, bounds) for bounds in BOUNDS_MODES}
        for strategy in SWEEP_STRATEGIES
    }

    payload = {
        "benchmark": "bounds_seeding_ablation",
        "instance": {
            "collective": "Allgather",
            "topology": "dgx1",
            **{k: v for k, v in SWEEP_BOUNDS.items()},
        },
        "cpu_count": cpu_parallelism(),
        "strategies": rows,
    }
    output = merge_bench_json("BENCH_sweep.json", "bounds_ablation", payload)

    report(
        "BENCH_sweep: bound-seeded pruning ablation (Allgather on DGX-1)",
        "\n".join(
            [
                f"{name:12s} {mode:8s} {row['wall_s']:7.2f}s  "
                f"probed={row['probes_issued']} pruned={row['probes_pruned']} "
                f"cut={row['probes_cut']} points={len(row['points'])} "
                f"(encode {row['phases']['encode_s']:.2f}s, "
                f"solve {row['phases']['solve_s']:.2f}s, "
                f"verify {row['phases']['verify_s']:.2f}s)"
                for name, modes in rows.items()
                for mode, row in modes.items()
            ]
            + [f"written to : {output}"]
        ),
    )

    for name, modes in rows.items():
        seeded, unseeded = modes["baseline"], modes["off"]
        # The ISSUE's acceptance bar: >=30% fewer solver probes when seeded.
        assert seeded["probes_issued"] <= 0.7 * unseeded["probes_issued"], (
            f"{name}: seeded run probed {seeded['probes_issued']} of "
            f"{unseeded['probes_issued']} candidates (<30% reduction)"
        )
        assert seeded["probes_pruned"] > 0, f"{name}: seeded run pruned nothing"
        assert seeded["bound_sources"], f"{name}: seeded run reports no bound sources"
        assert unseeded["probes_pruned"] == 0 and unseeded["probes_cut"] == 0
        # Identical frontiers: pruning drops only dominated points.
        assert seeded["pareto_points"] == unseeded["pareto_points"], (
            f"{name}: bound seeding changed the Pareto frontier"
        )
