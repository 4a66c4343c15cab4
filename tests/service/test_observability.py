"""Service-layer observability: the /v1/metrics endpoint, the engine
section of /v1/stats, counter survival across restarts, and reset().
"""

import time
import urllib.request

import pytest

from repro.engine import AlgorithmCache
from repro.service import (
    PlanRegistry,
    PlanRequest,
    PlanningService,
    ServerThread,
    fetch_metrics,
    fetch_stats,
    make_server,
)
from repro.telemetry import Metrics, set_metrics

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)


@pytest.fixture
def metrics():
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def service(tmp_path, metrics):
    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))
    with PlanningService(registry, num_workers=2) as svc:
        yield svc


@pytest.fixture
def server_url(service):
    with ServerThread(make_server(service, port=0)) as thread:
        yield thread.url


class TestMetricsEndpoint:
    def test_prometheus_exposition_after_a_request(self, service, server_url, metrics):
        assert service.request(PINNED, timeout=120.0).ok

        endpoint = server_url + "/v1/metrics"
        with urllib.request.urlopen(endpoint, timeout=5) as reply:
            assert reply.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            body = reply.read().decode("utf-8")
        assert "# TYPE repro_solver_calls_total counter" in body
        assert "repro_solver_calls_total" in body
        assert 'repro_broker_requests_total{outcome="enqueued"} 1' in body
        assert 'repro_broker_jobs_total{outcome="completed"} 1' in body
        assert 'repro_resolver_rung_total{rung="synthesized"} 1' in body
        assert "repro_metrics_since_timestamp_seconds" in body

        # The typed client helper returns the same payload.
        assert fetch_metrics(server_url) == body

    def test_metrics_match_stats_on_one_run(self, service, server_url, metrics):
        assert service.request(PINNED, timeout=120.0).ok
        # Identical re-request: answered from the registry, no new solve.
        assert service.request(PINNED, timeout=120.0).ok

        stats = fetch_stats(server_url)
        broker = stats["broker"]
        assert metrics.total(
            "repro_broker_requests_total", outcome="enqueued"
        ) + metrics.total(
            "repro_broker_requests_total", outcome="coalesced"
        ) == broker["submitted"]
        assert (
            metrics.total("repro_broker_jobs_total", outcome="completed")
            == broker["completed"]
        )
        resolver = stats["resolver"]
        assert metrics.total("repro_resolver_rung_total") == sum(
            resolver["rungs"].values()
        )


class TestStatsEngineSection:
    def test_engine_counters_and_windows(self, service, server_url):
        assert service.request(PINNED, timeout=120.0).ok
        stats = fetch_stats(server_url)

        engine = stats["engine"]
        assert set(engine["bounds"]) == {"probed", "pruned", "cut"}
        cache = engine["cache"]
        assert 0.0 <= cache["hit_rate"] <= 1.0
        # A pinned first-time synthesis stores through the cache.
        assert cache["misses"] >= 1

        # Satellite 2: every counter snapshot dates its own window.
        assert stats["broker"]["since"] == pytest.approx(time.time(), abs=300.0)
        assert stats["broker"]["uptime_s"] >= 0.0
        assert stats["resolver"]["since"] == pytest.approx(time.time(), abs=300.0)
        assert stats["resolver"]["rungs"].get("synthesized") == 1


class TestCountersAcrossRestarts:
    def test_counters_survive_stop_start(self, tmp_path, metrics):
        registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))
        service = PlanningService(registry, num_workers=2)
        service.start()
        try:
            assert service.request(PINNED, timeout=120.0).ok
            before = service.broker.stats()
            service.stop()
            service.start()
            after = service.broker.stats()
            # A restart is not a counter reset: scrapers would read a
            # rate discontinuity as lost work.
            assert after["submitted"] == before["submitted"] == 1
            assert after["completed"] == before["completed"] == 1
            assert after["since"] == before["since"]
            assert service.resolver.stats()["solves"] == 1
        finally:
            service.stop()
