"""CLI observability surface: --trace exports, ``repro trace``, and
``repro request --stats``.
"""

import json

from repro.cli import main
from repro.engine import AlgorithmCache
from repro.service import PlanningService, PlanRegistry, ServerThread, make_server

QUICKSTART = ["Allgather", "-t", "ring:4", "-C", "1", "-S", "2", "-R", "3"]


class TestTraceExport:
    def test_synthesize_trace_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        code = main(
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--trace", str(trace)]
        )
        assert code == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"probe", "encode", "solve", "verify"} <= names

    def test_pareto_trace_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        code = main(
            [
                "pareto", "Allgather", "-t", "ring:4", "--max-steps", "3",
                "--no-cache", "--trace", str(trace),
            ]
        )
        assert code == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"pareto", "sweep", "probe"} <= names

    def test_trace_command_summarizes(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(
            [
                "pareto", "Allgather", "-t", "ring:4", "--max-steps", "3",
                "--no-cache", "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events across" in out
        assert "probe" in out and "sweep" in out
        assert "probe coverage" in out

    def test_trace_command_rejects_bad_input(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "missing.json")]) == 1
        assert "no such file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        assert main(["trace", str(bad)]) == 1
        assert "not valid trace JSON" in capsys.readouterr().err
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        assert main(["trace", str(array)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err


def _trace(events):
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _span(name, ts_us, dur_us, **args):
    return {"ph": "X", "name": name, "ts": ts_us, "dur": dur_us,
            "pid": 1, "tid": 1, "args": args}


class TestTraceTopAndDiff:
    def test_trace_top_lists_slowest_spans(self, tmp_path, capsys):
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

    def test_trace_diff_ranks_phases_by_delta(self, tmp_path, capsys):
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

    def test_trace_diff_missing_file_errors(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_trace([_span("solve", 0, 1000)])))
        assert main(["trace", str(path), "--diff", str(tmp_path / "nope.json")]) == 1
        assert "no such file" in capsys.readouterr().err


class TestRequestStats:
    def test_stats_pretty_prints_sections(self, tmp_path, capsys):
        registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "cache"))
        with PlanningService(registry, num_workers=1) as service:
            with ServerThread(make_server(service, port=0)) as thread:
                code = main(["request", "--stats", "--url", thread.url])
        assert code == 0
        out = capsys.readouterr().out
        for section in ("broker:", "resolver:", "engine:"):
            assert section in out
        assert "coalesced" in out
        assert "ladder rungs" in out
        assert "candidates pruned" in out
        assert "cache hit rate" in out

    def test_stats_are_read_from_a_server_not_local(self, capsys):
        assert main(["request", "--stats", "--local"]) == 1
        assert "--url" in capsys.readouterr().err

    def test_request_without_collective_or_stats_errors(self, tmp_path, capsys):
        assert main(["request", "--cache-dir", str(tmp_path)]) == 1
        assert "needs a COLLECTIVE" in capsys.readouterr().err

    def test_request_collective_without_topology_errors(self, tmp_path, capsys):
        assert main(["request", "Allgather", "--cache-dir", str(tmp_path)]) == 1
        assert "--topology" in capsys.readouterr().err

    def test_stats_against_unreachable_server_fails_cleanly(self, capsys):
        code = main(["request", "--stats", "--url", "http://127.0.0.1:1"])
        assert code == 1
        assert "cannot fetch stats" in capsys.readouterr().err
