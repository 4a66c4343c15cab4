"""CLI coverage for the ``repro perf`` family and the ``repro trace``
``--top``/``--diff`` flags — the commands CI's sentinel step drives."""

import json

import pytest

from repro.cli import main
from repro.perf import flatten_bench_metrics
from repro.telemetry.archive import PerfArchive, RunRecord, host_context


@pytest.fixture
def archive_dir(tmp_path):
    return tmp_path / "perf"


@pytest.fixture
def archive(archive_dir):
    return PerfArchive(archive_dir)


def _seed_pareto_history(archive, *, samples=3):
    for index in range(samples):
        base = 0.1 + 0.01 * index
        for strategy, wall in (("serial", base), ("incremental", base * 10)):
            archive.append(RunRecord(
                kind="pareto", name="Allgather/ring:4",
                features={"nodes": 4, "k": 0, "chunks": 0},
                strategy=strategy, backend="cdcl", verdict="sat",
                wall_s=wall, host=host_context(),
            ))


# ----------------------------------------------------------------------
# repro perf history / compare
# ----------------------------------------------------------------------
def test_perf_history_lists_and_filters(archive_dir, archive, capsys):
    _seed_pareto_history(archive)
    archive.append(RunRecord(kind="bench", name="BENCH_service",
                             metrics={"warm.solve_s": 1.0}))

    assert main(["perf", "history", "--archive-dir", str(archive_dir)]) == 0
    out = capsys.readouterr().out
    assert "7 records" in out
    assert "Allgather/ring:4" in out and "BENCH_service" in out

    assert main(["perf", "history", "--archive-dir", str(archive_dir),
                 "--kind", "bench"]) == 0
    out = capsys.readouterr().out
    assert "BENCH_service" in out and "Allgather/ring:4" not in out

    assert main(["perf", "history", "--archive-dir", str(archive_dir),
                 "--json", "--limit", "1"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1 and records[0]["kind"] == "bench"


def test_perf_history_empty_archive(archive_dir, capsys):
    assert main(["perf", "history", "--archive-dir", str(archive_dir)]) == 0
    assert "no matching records" in capsys.readouterr().out


def test_perf_compare_at_addresses(archive_dir, archive, capsys):
    archive.append(RunRecord(kind="pareto", name="run-a", wall_s=1.0,
                             phases={"solve_s": 0.5}))
    archive.append(RunRecord(kind="pareto", name="run-b", wall_s=2.0,
                             phases={"solve_s": 1.5}))
    assert main(["perf", "compare", "@1", "@0",
                 "--archive-dir", str(archive_dir)]) == 0
    out = capsys.readouterr().out
    assert "run-a" in out and "run-b" in out
    assert "phase.solve_s" in out


def test_perf_compare_rejects_unknown_token(archive_dir, archive, capsys):
    archive.append(RunRecord(kind="pareto", name="only"))
    assert main(["perf", "compare", "@0", "zzz-no-such",
                 "--archive-dir", str(archive_dir)]) == 1
    assert "no archived record matches" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro perf regressions (the CI gate)
# ----------------------------------------------------------------------
def _write_bench(bench_dir, payload, name="BENCH_service.json"):
    bench_dir.mkdir(parents=True, exist_ok=True)
    path = bench_dir / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _archive_bench_rows(archive, payload, *, runs=3, name="BENCH_service"):
    metrics = {k: v for k, (v, _) in flatten_bench_metrics(payload).items()}
    for _ in range(runs):
        archive.append(RunRecord(kind="bench", name=name, metrics=metrics,
                                 host=host_context()))


def test_perf_regressions_flags_injected_slowdown(tmp_path, archive_dir,
                                                  archive, capsys):
    bench_dir = tmp_path / "bench"
    good = {"warm": {"solve_s": 1.0, "cache_hit_rate": 0.95}}
    _archive_bench_rows(archive, good)
    _write_bench(bench_dir, {"warm": {"solve_s": 3.0, "cache_hit_rate": 0.95}})

    code = main(["perf", "regressions", "--bench-dir", str(bench_dir),
                 "--archive-dir", str(archive_dir)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] BENCH_service:warm.solve_s" in out

    # --warn-only keeps the report but neuters the exit code (first-run CI).
    code = main(["perf", "regressions", "--bench-dir", str(bench_dir),
                 "--archive-dir", str(archive_dir), "--warn-only"])
    assert code == 0
    # A wider band tolerates the same numbers.
    code = main(["perf", "regressions", "--bench-dir", str(bench_dir),
                 "--archive-dir", str(archive_dir), "--max-slowdown", "3.0"])
    assert code == 0


def test_perf_regressions_empty_archive_passes(tmp_path, archive_dir, capsys):
    bench_dir = tmp_path / "bench"
    _write_bench(bench_dir, {"warm": {"solve_s": 1.0}})
    code = main(["perf", "regressions", "--bench-dir", str(bench_dir),
                 "--archive-dir", str(archive_dir)])
    assert code == 0
    assert "first run: warn-only" in capsys.readouterr().out


def test_perf_regressions_requires_bench_files(tmp_path, archive_dir, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["perf", "regressions", "--bench-dir", str(empty),
                 "--archive-dir", str(archive_dir)]) == 1
    assert "no BENCH_*.json" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro trace --top / --diff
# ----------------------------------------------------------------------
def _trace(events):
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _span(name, ts_us, dur_us, **args):
    return {"ph": "X", "name": name, "ts": ts_us, "dur": dur_us,
            "pid": 1, "tid": 1, "args": args}


def test_trace_top_lists_slowest_spans(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(_trace([
        _span("solve", 0, 900_000, C=1, S=2),
        _span("encode", 900_000, 100_000),
        _span("verify", 1_000_000, 50_000),
    ])))
    assert main(["trace", str(path), "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "top 2 slowest spans:" in out
    assert "solve" in out and "C=1" in out
    assert "verify" not in out.split("top 2 slowest spans:")[1]


def test_trace_diff_ranks_phases_by_delta(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_trace([
        _span("solve", 0, 1_000_000), _span("encode", 0, 100_000),
    ])))
    b.write_text(json.dumps(_trace([
        _span("solve", 0, 3_000_000), _span("encode", 0, 110_000),
    ])))
    assert main(["trace", str(a), "--diff", str(b)]) == 0
    out = capsys.readouterr().out
    # solve moved +2s, encode +0.01s: solve is the first data row.
    rows = [line for line in out.splitlines()
            if line.startswith(("solve", "encode"))]
    assert rows and rows[0].startswith("solve")
    assert "(+200%)" in rows[0]


def test_trace_diff_missing_file_errors(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(_trace([_span("solve", 0, 1000)])))
    assert main(["trace", str(path), "--diff", str(tmp_path / "nope.json")]) == 1
    assert "no such file" in capsys.readouterr().err
