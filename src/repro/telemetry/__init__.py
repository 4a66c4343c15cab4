"""Telemetry: span tracing, a metrics registry, and their export paths.

Three pieces, all stdlib-only:

* :mod:`~repro.telemetry.tracer` — nested :class:`Span` trees recorded by a
  :class:`Tracer`; pool workers export spans as dicts and the dispatching
  sweep span re-parents them with :meth:`Span.adopt`.  Chrome trace-event
  JSON export for Perfetto.  Disabled by default via a shared no-op tracer.
* :mod:`~repro.telemetry.metrics` — counters / gauges / histograms with
  label sets and Prometheus text exposition (served at ``/v1/metrics``).
* :mod:`~repro.telemetry.logbridge` — one JSONL record per finished span
  through the stdlib ``logging`` module.
* :mod:`~repro.telemetry.archive` — the *persistent* layer: append-only
  JSONL run history under ``~/.cache/repro/perf`` (``$REPRO_PERF_DIR``)
  that probes, sweeps, Pareto runs, service requests and benchmarks record
  into; the substrate for ``repro perf`` (:mod:`repro.perf`).
"""

from .archive import (
    ARCHIVE_DIR_ENV,
    ARCHIVE_DISABLE_ENV,
    ArchiveError,
    PerfArchive,
    RunRecord,
    default_archive_dir,
    exact_quantiles,
    flush_records,
    get_archive,
    host_context,
    host_fingerprint,
    record_run,
    recording_enabled,
    set_archive,
)
from .logbridge import SpanLogBridge, jsonl_logging, log_metrics_snapshot
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
    "ARCHIVE_DIR_ENV",
    "ARCHIVE_DISABLE_ENV",
    "ArchiveError",
    "DEFAULT_BUCKETS",
    "Metrics",
    "MetricsError",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PerfArchive",
    "RunRecord",
    "Span",
    "SpanLogBridge",
    "Tracer",
    "default_archive_dir",
    "diff_chrome_traces",
    "exact_quantiles",
    "flush_records",
    "get_archive",
    "get_metrics",
    "get_tracer",
    "host_context",
    "host_fingerprint",
    "iter_spans",
    "jsonl_logging",
    "log_metrics_snapshot",
    "record_run",
    "recording_enabled",
    "set_archive",
    "set_metrics",
    "set_tracer",
    "span_coverage",
    "spans_to_chrome_trace",
    "summarize_chrome_trace",
    "tracing",
]
