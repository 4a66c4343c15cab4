"""Service-layer observability: the /v1/metrics endpoint, /v1/stats as a
view of the same registry, and counter survival across restarts.
"""

import threading
import urllib.request

import pytest

from repro.engine import AlgorithmCache
from repro.service import (
    PlanRegistry,
    PlanRequest,
    PlanResponse,
    PlanningService,
    ServerThread,
    fetch_metrics,
    fetch_stats,
    make_server,
)
from repro.telemetry import Metrics, get_metrics, set_metrics

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=120.0)


@pytest.fixture
def metrics():
    """A registry of the test's own: the service keeps no counts but its
    series, and the process-wide registry holds every other test's too."""
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
        assert service.request(PINNED).ok

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

    def test_one_coalesced_request_moves_the_series_and_the_view_by_one(
        self, tmp_path, metrics
    ):
        """One ledger: ``/v1/stats`` reads the series ``/v1/metrics`` serves."""
        gate = threading.Event()

        def gated(request, remaining_s=None):
            assert gate.wait(10.0)
            return PlanResponse(status="ok", request_key=request.request_key(), source="cache")

        def coalesced(url):
            return (
                metrics.value("repro_broker_requests_total", outcome="coalesced"),
                fetch_stats(url)["broker"]["coalesced"],
            )

        registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))
        with PlanningService(registry, num_workers=1, resolver=gated) as service:
            with ServerThread(make_server(service, port=0)) as thread:
                first = service.submit(PINNED)
                before = coalesced(thread.url)
                second = service.submit(PINNED)  # joins the job the gate holds
                after = coalesced(thread.url)
                gate.set()
                assert first.wait().ok and second.wait().coalesced
        assert after == (before[0] + 1, before[1] + 1)


class TestStatsIsAViewOfTheRegistry:
    def test_engine_counters_and_window(self, service, server_url):
        assert service.request(PINNED).ok
        stats = fetch_stats(server_url)

        engine = stats["engine"]
        assert set(engine["bounds"]) == {"probed", "pruned", "cut"}
        cache = engine["cache"]
        assert 0.0 <= cache["hit_rate"] <= 1.0
        # A pinned first-time synthesis stores through the cache.
        assert cache["misses"] >= 1
        assert cache["entries"] == 1

        # One window for every count: the registry's.
        assert stats["since"] == get_metrics().since
        assert stats["resolver"]["rungs"] == {"synthesized": 1}

    def test_a_fresh_registry_reads_zero(self, service, server_url):
        """Nothing is counted beside the registry: swap it and every count
        of a running service reads 0, while the live state stays."""
        assert service.request(PINNED).ok
        assert service.request(PINNED).ok
        fresh = Metrics()
        set_metrics(fresh)  # the fixture puts the previous one back
        stats = fetch_stats(server_url)

        broker = stats["broker"]
        for count in ("submitted", "coalesced", "completed", "failed", "expired",
                      "dropped_jobs", "resolver_crashes"):
            assert broker[count] == 0, count
        assert stats["since"] == fresh.since
        assert stats["resolver"] == {"rungs": {}, "warm_hits": 0, "replans": 0}
        assert set(stats["engine"]["bounds"].values()) == {0}
        cache = stats["engine"]["cache"]
        assert (cache["hits"], cache["misses"]) == (0, 0)
        # State, not counts: the entry is still on disk.
        assert cache["entries"] == 1


class TestCountersAcrossRestarts:
    def test_counters_survive_stop_start(self, tmp_path, metrics):
        """A stopped service does not start again; its successor over the
        same registry reads the same counts, which live in the process
        metrics registry."""
        registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))
        with PlanningService(registry, num_workers=2) as first:
            assert first.request(PINNED).ok
            before = first.stats()
        with PlanningService(registry, num_workers=2) as second:
            after = second.stats()
            # A restart is not a counter reset: scrapers would read a
            # rate discontinuity as lost work.
            assert after["broker"]["submitted"] == before["broker"]["submitted"] == 1
            assert after["broker"]["completed"] == before["broker"]["completed"] == 1
            assert after["since"] == before["since"]
            assert after["resolver"]["rungs"] == {"synthesized": 1}
            assert second.request(PINNED).source == "cache"
