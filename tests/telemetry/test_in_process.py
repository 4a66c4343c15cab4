"""Telemetry stays in process.

Probes, sweeps, Pareto runs and service resolutions feed the metrics
registry (and a Chrome trace when one is asked for) and write nothing
else: no run history appears under ``HOME``, and the retired
``REPRO_PERF_DIR`` variable is ignored.
"""

import importlib
import os

import pytest

import repro.telemetry as telemetry
from repro.core import make_instance, pareto_synthesize, synthesize
from repro.engine import AlgorithmCache
from repro.service import PlanRegistry, PlanRequest, PlanningService, SynthesisResolver
from repro.telemetry import Metrics, set_metrics
from repro.topology import ring

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=120.0)


@pytest.fixture
def metrics():
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """An empty ``HOME``, no ``REPRO_*`` settings but the retired
    ``REPRO_PERF_DIR``, and a ``work`` directory for what a test asks for."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    (tmp_path / "home").mkdir()
    (tmp_path / "work").mkdir()
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "perf"))
    return tmp_path


def assert_untouched(sandbox):
    assert sorted((sandbox / "home").rglob("*")) == []
    assert sorted(p.name for p in sandbox.iterdir()) == ["home", "work"]


def histogram_counts(metrics, name):
    prefix = name + "{"
    return {
        key[len(prefix):-1]: value["count"]
        for key, value in metrics.snapshot()["histograms"].items()
        if key.startswith(prefix)
    }


# ----------------------------------------------------------------------
# Probes and Pareto runs
# ----------------------------------------------------------------------
def test_a_probe_writes_only_its_cache_entry(sandbox):
    cache = AlgorithmCache(sandbox / "work" / "cache")
    result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3), cache=cache)
    assert result.is_sat
    assert synthesize(result.instance, cache=cache).cache_hit
    assert len(cache) == 1
    assert [p.suffix for p in cache.root.rglob("*") if p.is_file()] == [".json"]
    assert_untouched(sandbox)


def test_a_probe_without_a_cache_writes_nothing(sandbox):
    result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
    assert result.is_sat
    assert_untouched(sandbox)
    assert list((sandbox / "work").iterdir()) == []


@pytest.mark.parametrize("strategy", ["serial", "incremental", "parallel", "speculative"])
def test_a_pareto_run_writes_nothing(sandbox, metrics, strategy):
    """Pool strategies included: their worker processes inherit the same
    environment and must not leave anything behind either."""
    frontier = pareto_synthesize(
        "Allgather", ring(4), k=0, max_steps=3, strategy=strategy, max_workers=2
    )
    assert frontier.points
    stats = frontier.engine_stats
    assert metrics.total("repro_bounds_candidates_total", action="probed") == (
        stats["candidates_probed"]
    )
    assert_untouched(sandbox)
    assert list((sandbox / "work").iterdir()) == []


# ----------------------------------------------------------------------
# Service resolutions
# ----------------------------------------------------------------------
def _registry(sandbox):
    return PlanRegistry(cache=AlgorithmCache(sandbox / "work" / "algorithms"))


def test_each_resolution_is_one_latency_sample_labelled_by_rung(sandbox, metrics):
    resolver = SynthesisResolver(_registry(sandbox))
    cold = resolver(PINNED, None)
    warm = resolver(PINNED, None)
    assert (cold.source, warm.source) == ("synthesized", "cache")
    assert histogram_counts(metrics, "repro_resolver_latency_seconds") == {
        'rung="cache"': 1,
        'rung="synthesized"': 1,
    }
    assert_untouched(sandbox)


def test_a_failed_resolution_is_labelled_by_its_status(sandbox, metrics):
    resolver = SynthesisResolver(_registry(sandbox))
    unsat = PlanRequest("Allgather", "ring:4", chunks=1, steps=1, rounds=1)
    response = resolver(unsat, None)
    assert not response.ok
    assert histogram_counts(metrics, "repro_resolver_latency_seconds") == {
        f'rung="{response.status}"': 1,
    }


def test_service_stats_report_the_service_and_not_the_host(sandbox, metrics):
    with PlanningService(_registry(sandbox), num_workers=1) as service:
        assert service.request(PINNED).ok
        stats = service.stats()
    assert set(stats) == {
        "since", "broker", "registry", "resolver", "workers", "faults", "engine",
    }
    assert stats["resolver"]["rungs"] == {"synthesized": 1}
    assert_untouched(sandbox)


# ----------------------------------------------------------------------
# The retired archive surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("module", ["repro.perf", "repro.telemetry.archive"])
def test_the_archive_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_package_exports_no_archive_names():
    retired = {
        "ARCHIVE_DIR_ENV", "ARCHIVE_DISABLE_ENV", "ArchiveError", "PerfArchive",
        "RunRecord", "default_archive_dir", "exact_quantiles", "flush_records",
        "get_archive", "host_context", "host_fingerprint", "record_run",
        "recording_enabled", "set_archive",
    }
    assert not retired & set(telemetry.__all__)
    assert not [name for name in retired if hasattr(telemetry, name)]
