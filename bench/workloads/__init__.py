"""The benchmark's workloads; each module has ``setup``, ``teardown``,
``measure`` (tracing off, end-to-end metrics) and ``trace`` (per-layer
metrics from spans recorded around the calls into each layer)."""

WORKLOADS = ("frontier_cold", "probe_rows", "service_mix", "schedule_pipeline")
