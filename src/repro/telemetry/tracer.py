"""Span-based tracing for the synthesis engine and the planning service.

A :class:`Span` is one timed region of work with a name, a flat attribute
dict, and child spans; a :class:`Tracer` records a forest of them.  Nesting
follows a per-thread stack, so code instruments itself with plain context
managers::

    with tracer.span("sweep", steps=3) as sweep:
        with tracer.span("probe", S=3, R=3, C=2) as probe:
            ...
            probe.set(verdict="sat")

Spans carry a wall-clock epoch start (for cross-process alignment) and a
monotonic-derived duration (immune to clock steps).  Spans produced inside
pool *worker processes* are exported as plain dicts
(:meth:`Tracer.export`), shipped back in the pickled result, and grafted
under the dispatching sweep span with :meth:`Span.adopt` — the Chrome trace
keeps the worker's pid/tid so Perfetto renders one track per worker.

The module-level default tracer is a shared :class:`NullTracer` whose
``span()`` returns one immutable no-op object, so an uninstrumented run
pays one attribute lookup and one method call per site and allocates
nothing.  :func:`tracing` swaps a recording tracer in for one call tree.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One timed region: name, attributes, children (see module docstring)."""

    __slots__ = (
        "name", "attrs", "start_s", "duration_s", "pid", "tid", "children", "_open"
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[dict] = None,
        *,
        start_s: Optional[float] = None,
        duration_s: float = 0.0,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.start_s = time.time() if start_s is None else start_s
        self.duration_s = duration_s
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() if tid is None else tid
        self.children: List["Span"] = []
        self._open = True

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on an open or finished span."""
        self.attrs.update(attrs)
        return self

    def adopt(self, exported: Optional[Sequence[dict]]) -> None:
        """Re-parent spans exported by another process/tracer under this one."""
        for data in exported or ():
            self.children.append(Span.from_dict(data))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            str(data.get("name", "?")),
            data.get("attrs") or {},
            start_s=float(data.get("start_s", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
        )
        span._open = False
        for child in data.get("children") or ():
            span.children.append(cls.from_dict(child))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.2f}ms, "
            f"attrs={self.attrs}, children={len(self.children)})"
        )


class _SpanContext:
    """Context manager pairing a span with the tracer's per-thread stack."""

    __slots__ = ("_tracer", "span", "_mono0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._mono0 = 0.0

    def __enter__(self) -> Span:
        self._mono0 = time.monotonic()
        self._tracer._stack().append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        span.duration_s = time.monotonic() - self._mono0
        span._open = False
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit guard
            try:
                stack.remove(span)
            except ValueError:
                pass
        self._tracer._attach(span, stack)
        return False


class Tracer:
    """Thread-safe recording tracer (see module docstring)."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: List[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attach(self, span: Span, stack: List[Span]) -> None:
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span: ``with tracer.span("solve", S=3) as sp: ...``"""
        return _SpanContext(self, Span(name, attrs))

    def instant(self, name: str, **attrs) -> Span:
        """Record a zero-duration event at the current nesting level."""
        span = Span(name, attrs)
        span._open = False
        self._attach(span, self._stack())
        return span

    def open(self, name: str, **attrs) -> Span:
        """Start a free-floating span (no stack nesting); finish with :meth:`close`.

        For overlapping regions a thread cannot express as nested ``with``
        blocks — e.g. the sweep loop's pool executor keeps a ``pool`` span
        open across every sweep of a run.  ``attrs['_mono0']`` holds
        the monotonic start internally and is stripped at close time.
        """
        span = Span(name, attrs)
        span.attrs["_mono0"] = time.monotonic()
        return span

    def close(self, span: Span, **attrs) -> None:
        """Finish a span from :meth:`open`; attaches it at the current level."""
        if not span._open:
            return
        mono0 = span.attrs.pop("_mono0", None)
        if isinstance(mono0, float):
            span.duration_s = time.monotonic() - mono0
        span.attrs.update(attrs)
        span._open = False
        self._attach(span, self._stack())

    # ------------------------------------------------------------------
    # Reading / exporting
    # ------------------------------------------------------------------
    def roots(self) -> List[Span]:
        with self._lock:
            return list(self._roots)

    def export(self) -> List[dict]:
        """Finished root spans as plain dicts (for cross-process transport)."""
        return [span.to_dict() for span in self.roots()]

    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON form (Perfetto / chrome://tracing)."""
        return spans_to_chrome_trace(self.roots())

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")


class _NullSpan:
    """The shared no-op span: every disabled call site gets this object."""

    __slots__ = ()
    children: tuple = ()
    attrs: dict = {}
    name = ""
    start_s = 0.0
    duration_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def adopt(self, exported) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: every method returns the shared no-op span."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def open(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def close(self, span, **attrs) -> None:
        pass

    def roots(self) -> List[Span]:
        return []

    def export(self) -> List[dict]:
        return []

    def chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


NULL_TRACER = NullTracer()

_TRACER = NULL_TRACER
_TRACER_LOCK = threading.Lock()


def get_tracer():
    """The process-wide current tracer (the no-op singleton by default)."""
    return _TRACER


def set_tracer(tracer) -> object:
    """Install ``tracer`` (``None`` restores the no-op); returns the old one."""
    global _TRACER
    with _TRACER_LOCK:
        previous = _TRACER
        _TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a recording tracer for one block; restores the previous one.

    ``with tracing() as tracer: pareto_synthesize(...)`` then read
    ``tracer.roots()`` / ``tracer.chrome_trace()``.
    """
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# Span-forest utilities
# ----------------------------------------------------------------------
def iter_spans(spans: Iterable[Span]) -> Iterator[Span]:
    """Depth-first walk over a span forest."""
    pending = list(spans)
    while pending:
        span = pending.pop()
        yield span
        pending.extend(span.children)


def span_coverage(
    spans: Iterable[Span], name: str = "probe", total_s: Optional[float] = None
) -> float:
    """Fraction of wall clock covered by the union of ``name`` spans.

    ``total_s`` defaults to the extent of the whole forest (earliest start
    to latest end).  Overlapping intervals — concurrent pool workers — are
    merged before summing, so coverage never exceeds 1.0.
    """
    forest = list(spans)
    matching = [
        (s.start_s, s.end_s) for s in iter_spans(forest)
        if s.name == name and s.duration_s > 0
    ]
    if total_s is None:
        everything = [(s.start_s, s.end_s) for s in iter_spans(forest)]
        if not everything:
            return 0.0
        total_s = max(e for _, e in everything) - min(s for s, _ in everything)
    if not total_s or total_s <= 0 or not matching:
        return 0.0
    return min(1.0, _union_length(matching) / total_s)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of a non-empty list of ``(start, end)`` intervals:
    overlaps (concurrent pool workers) are merged before summing."""
    intervals = sorted(intervals)
    covered = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
    covered += cur_end - cur_start
    return covered


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def spans_to_chrome_trace(spans: Iterable[Span]) -> dict:
    """Render a span forest as Chrome trace-event JSON (complete events)."""
    forest = list(spans)
    starts = [s.start_s for s in iter_spans(forest)]
    origin = min(starts) if starts else 0.0
    events: List[dict] = []

    def walk(span: Span) -> None:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start_s - origin) * 1e6,
                "dur": max(0.0, span.duration_s) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )
        for child in span.children:
            walk(child)

    for root in forest:
        walk(root)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"origin_epoch_s": origin, "producer": "repro.telemetry"},
    }


def summarize_chrome_trace(trace: dict, top: int = 0) -> str:
    """Human-readable digest of a Chrome trace (the ``repro trace`` command).

    ``top`` > 0 appends the N slowest individual spans (with their args),
    the first thing to look at when a sweep's wall clock jumps.
    """
    events = trace.get("traceEvents") or []
    if not events:
        return "empty trace (no events)"
    by_name: Dict[str, List[float]] = {}
    t_min, t_max = float("inf"), float("-inf")
    for event in events:
        if event.get("ph") != "X":
            continue
        dur = float(event.get("dur", 0.0)) / 1e6
        ts = float(event.get("ts", 0.0)) / 1e6
        by_name.setdefault(str(event.get("name", "?")), []).append(dur)
        t_min = min(t_min, ts)
        t_max = max(t_max, ts + dur)
    wall = max(0.0, t_max - t_min)
    pids = {event.get("pid") for event in events}
    lines = [
        f"{len(events)} events across {len(pids)} process(es), "
        f"wall extent {wall:.3f}s",
        "",
        f"{'span':<14} {'count':>6} {'total_s':>9} {'mean_ms':>9} {'max_ms':>9}",
    ]
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durs = by_name[name]
        total = sum(durs)
        lines.append(
            f"{name:<14} {len(durs):>6} {total:>9.3f} "
            f"{1e3 * total / len(durs):>9.2f} {1e3 * max(durs):>9.2f}"
        )
    probe_events = [
        (float(e.get("ts", 0.0)) / 1e6,
         (float(e.get("ts", 0.0)) + float(e.get("dur", 0.0))) / 1e6)
        for e in events
        if e.get("ph") == "X" and e.get("name") == "probe"
        and float(e.get("dur", 0.0)) > 0
    ]
    if probe_events and wall > 0:
        covered = min(1.0, _union_length(probe_events) / wall)
        lines.append("")
        lines.append(
            f"probe coverage: {100.0 * covered:.1f}% of wall extent"
        )
    if top > 0:
        slowest = sorted(
            (e for e in events if e.get("ph") == "X"),
            key=lambda e: -float(e.get("dur", 0.0)),
        )[:top]
        lines.append("")
        lines.append(f"top {len(slowest)} slowest spans:")
        for event in slowest:
            args = event.get("args") or {}
            detail = " ".join(
                f"{k}={args[k]}" for k in sorted(args)
                if isinstance(args[k], (str, int, float, bool))
            )
            lines.append(
                f"  {float(event.get('dur', 0.0)) / 1e3:>10.2f} ms  "
                f"{event.get('name', '?'):<14} "
                f"@{float(event.get('ts', 0.0)) / 1e6:>8.3f}s"
                + (f"  {detail}" if detail else "")
            )
    return "\n".join(lines)


def _phase_profile(trace: dict) -> Dict[str, Tuple[int, float]]:
    """Per-span-name (count, total_s) for one Chrome trace."""
    profile: Dict[str, Tuple[int, float]] = {}
    for event in trace.get("traceEvents") or []:
        if event.get("ph") != "X":
            continue
        name = str(event.get("name", "?"))
        count, total = profile.get(name, (0, 0.0))
        profile[name] = (count + 1, total + float(event.get("dur", 0.0)) / 1e6)
    return profile


def diff_chrome_traces(a: dict, b: dict, *,
                       label_a: str = "A", label_b: str = "B") -> str:
    """Phase-by-phase comparison of two Chrome traces (``repro trace --diff``).

    Lines up the per-span-name totals of both traces and reports the time
    delta and count drift, sorted by absolute time delta — the phase that
    moved the most comes first.
    """
    profile_a = _phase_profile(a)
    profile_b = _phase_profile(b)
    names = sorted(
        set(profile_a) | set(profile_b),
        key=lambda n: -abs(
            profile_b.get(n, (0, 0.0))[1] - profile_a.get(n, (0, 0.0))[1]
        ),
    )
    if not names:
        return "both traces are empty (no complete events)"
    wall_a = sum(t for _, t in profile_a.values())
    wall_b = sum(t for _, t in profile_b.values())
    lines = [
        f"{label_a}: {sum(c for c, _ in profile_a.values())} events, "
        f"{wall_a:.3f}s total span time",
        f"{label_b}: {sum(c for c, _ in profile_b.values())} events, "
        f"{wall_b:.3f}s total span time",
        "",
        f"{'span':<14} {'count ' + label_a:>9} {'count ' + label_b:>9} "
        f"{'total_s ' + label_a:>11} {'total_s ' + label_b:>11} {'delta_s':>10}",
    ]
    for name in names:
        count_a, total_a = profile_a.get(name, (0, 0.0))
        count_b, total_b = profile_b.get(name, (0, 0.0))
        delta = total_b - total_a
        rel = f" ({100.0 * delta / total_a:+.0f}%)" if total_a > 0 else ""
        lines.append(
            f"{name:<14} {count_a:>9} {count_b:>9} "
            f"{total_a:>11.3f} {total_b:>11.3f} {delta:>+10.3f}{rel}"
        )
    return "\n".join(lines)
