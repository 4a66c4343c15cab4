"""Metrics registry unit tests: types, labels, exposition, concurrency."""

import threading
import time

import pytest

from repro.telemetry import (
    Metrics,
    MetricsError,
    get_metrics,
    set_metrics,
)


# ----------------------------------------------------------------------
# Counters / histograms
# ----------------------------------------------------------------------
def test_counters_accumulate_per_label_set():
    metrics = Metrics()
    metrics.inc("repro_solver_calls_total", backend="cdcl")
    metrics.inc("repro_solver_calls_total", backend="cdcl")
    metrics.inc("repro_solver_calls_total", backend="dpll")
    metrics.inc("repro_solver_calls_total", value=3.0, backend="dpll")

    assert metrics.value("repro_solver_calls_total", backend="cdcl") == 2.0
    assert metrics.value("repro_solver_calls_total", backend="dpll") == 4.0
    assert metrics.total("repro_solver_calls_total") == 6.0
    assert metrics.total("repro_solver_calls_total", backend="cdcl") == 2.0
    # Unknown series read as zero, not KeyError.
    assert metrics.value("repro_solver_calls_total", backend="z3") == 0.0


def test_histograms_track_sum_count_and_buckets():
    metrics = Metrics()
    for value in (0.004, 0.04, 0.4, 4.0):
        metrics.observe("repro_solve_seconds", value, backend="cdcl")
    assert metrics.value("repro_solve_seconds", backend="cdcl") == pytest.approx(4.444)
    text = metrics.render_prometheus()
    assert 'repro_solve_seconds_count{backend="cdcl"} 4' in text
    assert 'repro_solve_seconds_bucket{backend="cdcl",le="0.005"} 1' in text
    assert 'repro_solve_seconds_bucket{backend="cdcl",le="+Inf"} 4' in text


def test_type_confusion_is_an_error():
    metrics = Metrics()
    metrics.inc("repro_solver_calls_total")
    with pytest.raises(MetricsError):
        metrics.observe("repro_solver_calls_total", 1.0)
    metrics.observe("repro_solve_seconds", 1.0)
    with pytest.raises(MetricsError):
        metrics.inc("repro_solve_seconds")


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_rendering_format():
    metrics = Metrics()
    metrics.inc("repro_cache_lookups_total", outcome="hit")
    metrics.inc("repro_cache_lookups_total", value=2.0, outcome="miss")
    metrics.observe("repro_solve_seconds", 0.5)

    text = metrics.render_prometheus()
    lines = text.splitlines()
    assert "# TYPE repro_cache_lookups_total counter" in lines
    assert 'repro_cache_lookups_total{outcome="hit"} 1' in lines
    assert 'repro_cache_lookups_total{outcome="miss"} 2' in lines
    assert "# TYPE repro_solve_seconds histogram" in lines
    # Buckets, sum and count only: quantiles are served by /v1/stats.
    assert not any("_estimate" in line for line in lines)
    # The registry's window is dated so scrapers can detect resets.
    assert any(
        line.startswith("repro_metrics_since_timestamp_seconds ") for line in lines
    )
    assert text.endswith("\n")


def test_label_values_are_escaped():
    metrics = Metrics()
    metrics.inc("repro_test_total", path='a"b\\c')
    assert 'repro_test_total{path="a\\"b\\\\c"} 1' in metrics.render_prometheus()


def test_snapshot_is_json_friendly():
    import json

    metrics = Metrics()
    metrics.inc("repro_solver_calls_total", backend="cdcl")
    metrics.observe("repro_solve_seconds", 0.5)
    snapshot = json.loads(json.dumps(metrics.snapshot()))
    assert snapshot["counters"] == {'repro_solver_calls_total{backend="cdcl"}': 1.0}
    hist = snapshot["histograms"]["repro_solve_seconds"]
    assert hist["count"] == 1 and hist["sum"] == 0.5
    # A single observation pins every quantile to the observed value.
    assert hist["p50"] == hist["p95"] == hist["p99"] == pytest.approx(0.5)
    assert snapshot["since"] == pytest.approx(metrics.since)


# ----------------------------------------------------------------------
# Quantile estimation (satellite: p50/p95/p99 from histogram buckets)
# ----------------------------------------------------------------------
def test_quantiles_interpolate_within_buckets():
    metrics = Metrics()
    for value in (0.004, 0.04, 0.4, 4.0):
        metrics.observe("repro_solve_seconds", value, backend="cdcl")
    q = metrics.quantiles("repro_solve_seconds", backend="cdcl")
    assert set(q) == {"p50", "p95", "p99"}
    # Monotone, bracketed by the observed extremes.
    assert 0.004 <= q["p50"] <= q["p95"] <= q["p99"] <= 4.0


def test_quantiles_merge_across_label_sets():
    metrics = Metrics()
    metrics.observe("repro_solve_seconds", 0.001, backend="cdcl")
    metrics.observe("repro_solve_seconds", 8.0, backend="dpll")
    merged = metrics.quantiles("repro_solve_seconds")
    assert merged["p99"] >= merged["p50"] >= 0.001
    # Filtering by label uses only that series.
    only = metrics.quantiles("repro_solve_seconds", backend="cdcl")
    assert only["p50"] == pytest.approx(0.001)


def test_quantiles_unknown_series_is_empty():
    assert Metrics().quantiles("repro_solve_seconds") == {}


def test_histogram_buckets_are_per_bucket_counts():
    """Intermediate cumulative bucket lines must be correct, not just the
    first and +Inf ones (a double-cumulation bug once hid here)."""
    metrics = Metrics()
    for value in (0.004, 0.04, 0.4, 4.0):
        metrics.observe("repro_solve_seconds", value, backend="cdcl")
    text = metrics.render_prometheus()
    assert 'repro_solve_seconds_bucket{backend="cdcl",le="0.01"} 1' in text
    assert 'repro_solve_seconds_bucket{backend="cdcl",le="0.05"} 2' in text
    assert 'repro_solve_seconds_bucket{backend="cdcl",le="0.5"} 3' in text


def test_set_metrics_swaps_registry():
    fresh = Metrics()
    previous = set_metrics(fresh)
    try:
        assert get_metrics() is fresh
    finally:
        set_metrics(previous)
    assert get_metrics() is previous


# ----------------------------------------------------------------------
# Concurrency: 8 threads hammering one registry lose no increments
# ----------------------------------------------------------------------
def test_concurrent_increments_are_lossless():
    metrics = Metrics()
    threads, per_thread = 8, 2000
    barrier = threading.Barrier(threads)

    def work(index):
        barrier.wait()
        backend = "cdcl" if index % 2 else "dpll"
        for _ in range(per_thread):
            metrics.inc("repro_solver_calls_total", backend=backend)
            metrics.observe("repro_solve_seconds", 0.001, backend=backend)

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    assert metrics.total("repro_solver_calls_total") == threads * per_thread
    assert metrics.value("repro_solver_calls_total", backend="cdcl") == 4 * per_thread
    text = metrics.render_prometheus()
    assert f'repro_solve_seconds_count{{backend="cdcl"}} {4 * per_thread}' in text


# ----------------------------------------------------------------------
# The README metric table is the list of series: no more, no fewer
# ----------------------------------------------------------------------
def test_readme_metric_table_names_every_series_written():
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    written = set()
    for path in (root / "src").rglob("*.py"):
        written.update(re.findall(r"\brepro_[a-z_]+", path.read_text(encoding="utf-8")))

    readme = (root / "README.md").read_text(encoding="utf-8")
    table = readme.split("Metric names (all prefixed `repro_`", 1)[1].split("\n\n")[1]
    documented = set()
    for row in table.splitlines()[2:]:
        first_cell = row.split("|")[1]
        documented.update("repro_" + name for name in re.findall(r"`(\w+)`", first_cell))

    assert written == documented


def test_since_dates_the_registry_and_recording_never_moves_it():
    metrics = Metrics()
    since = metrics.since
    assert since == pytest.approx(time.time(), abs=60.0)
    metrics.inc("repro_solver_calls_total")
    metrics.observe("repro_solve_seconds", 0.01)
    assert metrics.since == since
    assert metrics.snapshot()["since"] == since
