"""Performance history: the CI regression sentinel.

Built on the persistent run archive (:mod:`repro.telemetry.archive`):
:mod:`~repro.perf.regressions` is the tolerance-band sentinel comparing
fresh ``BENCH_*.json`` numbers against the archived same-host trajectory
(``repro perf regressions`` in CI).
"""

from .regressions import (
    Finding,
    RegressionReport,
    ToleranceBand,
    baseline_records,
    classify_metric,
    compare_records,
    detect_regressions,
    flatten_bench_metrics,
)

__all__ = [
    "Finding",
    "RegressionReport",
    "ToleranceBand",
    "baseline_records",
    "classify_metric",
    "compare_records",
    "detect_regressions",
    "flatten_bench_metrics",
]
