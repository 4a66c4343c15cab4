"""Label-aware metrics registry with Prometheus text exposition.

One process-wide :class:`Metrics` instance collects counters and
histograms from the engine (solver calls, cache lookups, bounds actions)
and the service (broker requests and jobs, resolver rungs).  All mutation
goes through two calls::

    get_metrics().inc("repro_solver_calls_total", backend="cdcl")
    get_metrics().observe("repro_solve_seconds", dt, backend="cdcl")

Series are keyed on ``(name, sorted label items)`` and rendered in the
Prometheus text-exposition format by :meth:`Metrics.render_prometheus`
(served at ``/v1/metrics``).  Everything is stdlib + one lock; increments
are cheap enough to stay enabled even when tracing is off.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelKey]

#: Default histogram bucket upper bounds (seconds-oriented).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class MetricsError(Exception):
    """Raised when one metric name is used as two different types."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in items
    )
    return "{" + rendered + "}"


class _Histogram:
    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        # Per-bucket (non-cumulative) counts; exposition cumulates them.
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        # Values past the last bound live only in the implicit +Inf bucket.

    def merge(self, other: "_Histogram") -> None:
        """Fold another histogram in (label-aggregated quantile queries)."""
        if other.buckets != self.buckets:  # pragma: no cover - one scheme used
            raise MetricsError("cannot merge histograms with different buckets")
        self.sum += other.sum
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, count in enumerate(other.counts):
            self.counts[index] += count

    def quantile(self, q: float) -> float:
        """Estimated q-quantile via linear interpolation within buckets.

        The observed min/max clamp the first and last occupied buckets, so
        single-value and narrow distributions report exact answers instead
        of bucket-boundary artifacts.
        """
        if self.count == 0:
            return 0.0
        if self.min == self.max:
            return self.min
        target = max(1.0, q * self.count)
        cumulative = 0.0
        lower = 0.0
        for bound, count in zip(self.buckets, self.counts):
            if count:
                if cumulative + count >= target:
                    low = max(lower, self.min)
                    high = max(low, min(bound, self.max))
                    fraction = (target - cumulative) / count
                    return low + fraction * (high - low)
                cumulative += count
            lower = bound
        return self.max  # the +Inf overflow bucket

    def quantiles(self) -> Dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Metrics:
    """Thread-safe registry of counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[SeriesKey, float] = {}
        self._histograms: Dict[SeriesKey, _Histogram] = {}
        self._types: Dict[str, str] = {}
        self.since = time.time()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_type(self, name: str, kind: str) -> None:
        seen = self._types.get(name)
        if seen is None:
            self._types[name] = kind
        elif seen != kind:
            raise MetricsError(
                f"metric {name!r} already registered as {seen}, not {kind}"
            )

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._check_type(name, "counter")
            self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._check_type(name, "histogram")
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(DEFAULT_BUCKETS)
            hist.observe(float(value))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> float:
        """One series' current value (0.0 when it does not exist)."""
        key = (name, _label_key(labels))
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            hist = self._histograms.get(key)
            return hist.sum if hist is not None else 0.0

    def total(self, name: str, **match) -> float:
        """Sum of all ``name`` series whose labels include ``match``."""
        wanted = set(_label_key(match))
        total = 0.0
        with self._lock:
            for (series, labels), value in self._counters.items():
                if series == name and wanted <= set(labels):
                    total += value
            for (series, labels), hist in self._histograms.items():
                if series == name and wanted <= set(labels):
                    total += hist.sum
        return total

    def breakdown(self, name: str, label: str) -> Dict[str, float]:
        """The counter ``name`` summed per value of ``label`` (values that
        were never written are absent)."""
        totals: Dict[str, float] = {}
        with self._lock:
            for (series, labels), value in self._counters.items():
                if series == name:
                    key = dict(labels).get(label)
                    if key is not None:
                        totals[key] = totals.get(key, 0.0) + value
        return totals

    def quantiles(self, name: str, **match) -> Dict[str, float]:
        """Estimated p50, p95 and p99 over all ``name`` series matching ``match``.

        Matching histograms are bucket-merged first, so the answer covers
        the label-aggregated distribution (e.g. every label value together).
        Empty when no matching series has observations.
        """
        wanted = set(_label_key(match))
        merged: Optional[_Histogram] = None
        with self._lock:
            for (series, labels), hist in self._histograms.items():
                if series == name and wanted <= set(labels):
                    if merged is None:
                        merged = _Histogram(hist.buckets)
                    merged.merge(hist)
        if merged is None or merged.count == 0:
            return {}
        return merged.quantiles()

    def snapshot(self) -> dict:
        """A JSON-friendly dump of every series (tests and BENCH artifacts)."""
        with self._lock:
            return {
                "since": self.since,
                "counters": {
                    f"{name}{_render_labels(labels)}": value
                    for (name, labels), value in sorted(self._counters.items())
                },
                "histograms": {
                    f"{name}{_render_labels(labels)}": dict(
                        {"count": hist.count, "sum": hist.sum},
                        **hist.quantiles(),
                    )
                    for (name, labels), hist in sorted(self._histograms.items())
                },
            }

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The ``text/plain; version=0.0.4`` exposition body."""
        with self._lock:
            lines: List[str] = []
            by_name: Dict[str, List[Tuple[LabelKey, object]]] = {}
            for (name, labels), value in self._counters.items():
                by_name.setdefault(name, []).append((labels, value))
            for (name, labels), hist in self._histograms.items():
                by_name.setdefault(name, []).append((labels, hist))
            for name in sorted(by_name):
                lines.append(f"# TYPE {name} {self._types[name]}")
                for labels, value in sorted(by_name[name]):
                    if isinstance(value, _Histogram):
                        cumulative = 0
                        for bound, count in zip(value.buckets, value.counts):
                            cumulative += count
                            le = _render_labels(labels, ("le", _format(bound)))
                            lines.append(f"{name}_bucket{le} {cumulative}")
                        inf = _render_labels(labels, ("le", "+Inf"))
                        lines.append(f"{name}_bucket{inf} {value.count}")
                        lines.append(
                            f"{name}_sum{_render_labels(labels)} {_format(value.sum)}"
                        )
                        lines.append(
                            f"{name}_count{_render_labels(labels)} {value.count}"
                        )
                    else:
                        lines.append(
                            f"{name}{_render_labels(labels)} {_format(value)}"
                        )
            lines.append(
                f"# TYPE repro_metrics_since_timestamp_seconds gauge"
            )
            lines.append(
                f"repro_metrics_since_timestamp_seconds {_format(self.since)}"
            )
            return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


_METRICS = Metrics()
_METRICS_LOCK = threading.Lock()


def get_metrics() -> Metrics:
    """The process-wide metrics registry."""
    return _METRICS


def set_metrics(metrics: Optional[Metrics]) -> Metrics:
    """Install a registry (``None`` -> a fresh one); returns the old one."""
    global _METRICS
    with _METRICS_LOCK:
        previous = _METRICS
        _METRICS = metrics if metrics is not None else Metrics()
    return previous
