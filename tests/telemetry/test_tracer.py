"""Tracer unit tests: nesting, re-parenting, export formats, no-op path."""

import json
import threading

import pytest

from repro.telemetry import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    get_tracer,
    iter_spans,
    set_tracer,
    span_coverage,
    spans_to_chrome_trace,
    summarize_chrome_trace,
    tracing,
)


# ----------------------------------------------------------------------
# Nesting and attributes
# ----------------------------------------------------------------------
def test_span_nesting_follows_with_blocks():
    tracer = Tracer()
    with tracer.span("sweep", strategy="serial") as sweep:
        with tracer.span("probe", S=2) as probe:
            with tracer.span("encode"):
                pass
            with tracer.span("solve"):
                pass
            probe.set(verdict="sat")

    roots = tracer.roots()
    assert [r.name for r in roots] == ["sweep"]
    assert sweep.attrs == {"strategy": "serial"}
    assert [c.name for c in sweep.children] == ["probe"]
    assert [c.name for c in probe.children] == ["encode", "solve"]
    assert probe.attrs == {"S": 2, "verdict": "sat"}
    assert probe.duration_s >= 0.0
    assert probe.end_s == pytest.approx(probe.start_s + probe.duration_s)


def test_sibling_spans_attach_in_order():
    tracer = Tracer()
    for index in range(3):
        with tracer.span("probe", index=index):
            pass
    assert [r.attrs["index"] for r in tracer.roots()] == [0, 1, 2]


def test_exception_marks_span_and_still_attaches():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("solve"):
            raise RuntimeError("boom")
    (root,) = tracer.roots()
    assert root.attrs["error"] == "RuntimeError"


def test_nesting_is_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(tag):
        with tracer.span("outer", tag=tag):
            barrier.wait()  # both threads hold an open span at once
            with tracer.span("inner", tag=tag):
                pass

    threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    roots = tracer.roots()
    assert sorted(r.attrs["tag"] for r in roots) == ["a", "b"]
    for root in roots:
        # Each thread's inner span nests under its own outer span.
        assert [c.attrs["tag"] for c in root.children] == [root.attrs["tag"]]


def test_instant_records_zero_duration_event():
    tracer = Tracer()
    with tracer.span("sweep"):
        tracer.instant("probe", cache_hit=True)
    (sweep,) = tracer.roots()
    (probe,) = sweep.children
    assert probe.duration_s == 0.0
    assert probe.attrs == {"cache_hit": True}


def test_open_close_allows_overlapping_spans():
    tracer = Tracer()
    first = tracer.open("sweep", S=2)
    second = tracer.open("sweep", S=3)  # both open on one thread
    tracer.close(second, committed=False)
    tracer.close(first, committed=True)
    tracer.close(first)  # idempotent
    roots = tracer.roots()
    assert [r.attrs["S"] for r in roots] == [3, 2]
    assert roots[1].attrs["committed"] is True
    # The internal monotonic stamp never leaks into attributes.
    assert all("_mono0" not in r.attrs for r in roots)


# ----------------------------------------------------------------------
# Cross-process re-parenting
# ----------------------------------------------------------------------
def test_adopt_reparents_exported_spans_keeping_pid_tid():
    worker = Tracer()
    with worker.span("probe", S=3) as probe:
        with worker.span("solve"):
            pass
    exported = worker.export()
    # Simulate the pickled round trip through the pool result.
    exported = json.loads(json.dumps(exported))

    parent = Tracer()
    with parent.span("sweep") as sweep:
        sweep.adopt(exported)

    (sweep,) = parent.roots()
    (adopted,) = sweep.children
    assert adopted.name == "probe"
    assert adopted.attrs == {"S": 3}
    assert adopted.pid == probe.pid and adopted.tid == probe.tid
    assert [c.name for c in adopted.children] == ["solve"]
    assert adopted.duration_s == pytest.approx(probe.duration_s)


def test_span_dict_round_trip():
    span = Span("probe", {"S": 2, "verdict": "sat"}, start_s=10.0, duration_s=0.5)
    span.children.append(Span("solve", start_s=10.1, duration_s=0.3))
    clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
    assert clone.to_dict() == span.to_dict()


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_chrome_trace_schema_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("sweep", strategy="serial"):
        with tracer.span("probe", S=2, C=1, R=2, verdict="sat"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    trace = json.loads(path.read_text())

    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert [e["name"] for e in events] == ["sweep", "probe"]
    for event in events:
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    assert events[1]["args"] == {"S": 2, "C": 1, "R": 2, "verdict": "sat"}
    # Timestamps are normalized to the earliest span.
    assert min(e["ts"] for e in events) == 0.0

    summary = summarize_chrome_trace(trace)
    assert "2 events" in summary
    assert "probe" in summary and "sweep" in summary


def test_chrome_trace_of_empty_tracer():
    assert spans_to_chrome_trace([]) == {
        "traceEvents": [],
        "displayTimeUnit": "ms",
        "otherData": {"origin_epoch_s": 0.0, "producer": "repro.telemetry"},
    }
    assert summarize_chrome_trace({"traceEvents": []}) == "empty trace (no events)"


# ----------------------------------------------------------------------
# Coverage helper
# ----------------------------------------------------------------------
def test_span_coverage_merges_overlaps():
    spans = [
        Span("probe", start_s=0.0, duration_s=2.0),
        Span("probe", start_s=1.0, duration_s=2.0),  # overlaps the first
        Span("probe", start_s=5.0, duration_s=1.0),
        Span("other", start_s=0.0, duration_s=10.0),
    ]
    # Union of probe intervals: [0,3] + [5,6] = 4s of a 10s extent.
    assert span_coverage(spans, "probe") == pytest.approx(0.4)
    assert span_coverage(spans, "probe", total_s=8.0) == pytest.approx(0.5)
    assert span_coverage([], "probe") == 0.0


def test_trace_summary_merges_overlapping_probes_like_span_coverage():
    spans = [
        Span("probe", start_s=0.0, duration_s=2.0),
        Span("probe", start_s=1.0, duration_s=2.0),
        Span("probe", start_s=5.0, duration_s=1.0),
        Span("probe", start_s=7.0, duration_s=0.0),  # empty: not counted
        Span("other", start_s=0.0, duration_s=10.0),
    ]
    summary = summarize_chrome_trace(spans_to_chrome_trace(spans))
    assert f"probe coverage: {100.0 * span_coverage(spans, 'probe'):.1f}%" in summary
    assert "probe coverage: 40.0% of wall extent" in summary


def test_iter_spans_walks_whole_forest():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    names = sorted(s.name for s in iter_spans(tracer.roots()))
    assert names == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# Installation / no-op path
# ----------------------------------------------------------------------
def test_default_tracer_is_the_null_singleton():
    assert get_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled
    # Every call site shares one immutable object: nothing is allocated.
    span = NULL_TRACER.span("probe", S=3)
    assert span is NULL_SPAN
    assert NULL_TRACER.instant("x") is NULL_SPAN
    assert NULL_TRACER.open("x") is NULL_SPAN
    with span as inner:
        inner.set(verdict="sat")
        inner.adopt([{"name": "probe"}])
    assert span.attrs == {} and span.children == ()
    assert NULL_TRACER.roots() == [] and NULL_TRACER.export() == []
    assert NULL_TRACER.chrome_trace()["traceEvents"] == []


def test_tracing_swaps_and_restores():
    assert get_tracer() is NULL_TRACER
    with tracing() as tracer:
        assert get_tracer() is tracer
        assert tracer.enabled
        nested = Tracer()
        with tracing(nested):
            assert get_tracer() is nested
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_set_tracer_none_restores_null():
    previous = set_tracer(Tracer())
    assert previous is NULL_TRACER
    set_tracer(None)
    assert get_tracer() is NULL_TRACER
