"""Telemetry: span tracing, a metrics registry, and their two export paths.

Two pieces, both stdlib-only and in-process: nothing here writes a file
unless asked to (a Chrome trace path).

* :mod:`~repro.telemetry.tracer` — nested :class:`Span` trees recorded by a
  :class:`Tracer`; pool workers export spans as dicts and the dispatching
  sweep span re-parents them with :meth:`Span.adopt`.  Chrome trace-event
  JSON export for Perfetto.  Disabled by default via a shared no-op tracer.
* :mod:`~repro.telemetry.metrics` — counters and histograms with label
  sets and Prometheus text exposition (served at ``/v1/metrics``).  Each
  fact has one writer: the sweep loop counts the solver calls it awaits,
  :func:`~repro.core.synthesizer.synthesize` counts its own direct calls.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Metrics,
    MetricsError,
    get_metrics,
    set_metrics,
)
from .tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    diff_chrome_traces,
    get_tracer,
    iter_spans,
    set_tracer,
    span_coverage,
    spans_to_chrome_trace,
    summarize_chrome_trace,
    tracing,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Metrics",
    "MetricsError",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "diff_chrome_traces",
    "get_metrics",
    "get_tracer",
    "iter_spans",
    "set_metrics",
    "set_tracer",
    "span_coverage",
    "spans_to_chrome_trace",
    "summarize_chrome_trace",
    "tracing",
]
