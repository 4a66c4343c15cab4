"""Planning-service throughput benchmark -> BENCH_service.json.

Measures the serving-layer quantities the ROADMAP's north star cares
about, on the quickstart instance (Allgather, 4-node ring):

* **cold burst** — 8 concurrent identical requests against an empty
  registry: exactly one backend solve, the rest coalesced (the PR's
  acceptance criterion, measured rather than asserted-only);
* **warm throughput** — a multi-threaded client mix of pinned and routed
  requests over a hot registry: requests/sec, coalescing ratio and cache
  hit rate.

The numbers land in ``BENCH_service.json`` under ``.bench_build/`` (or
``$SCCL_BENCH_DIR``).
Everything here must stay fast: this file runs inside the tier-1 suite.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine import AlgorithmCache
from repro.service import PlanRegistry, PlanRequest, PlanningService, SynthesisResolver

from conftest import report, write_bench_json

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)


def _make_service(tmp_path, name):
    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / name / "algorithms"))
    resolver = SynthesisResolver(registry)
    return PlanningService(registry, num_workers=4, resolver=resolver), resolver


def _broker_metrics(metrics) -> dict:
    """The Prometheus series a scraper would see for this window — recorded
    so BENCH_service.json and /v1/metrics can be cross-checked on one run."""
    return {
        "broker_enqueued": int(
            metrics.total("repro_broker_requests_total", outcome="enqueued")
        ),
        "broker_coalesced": int(
            metrics.total("repro_broker_requests_total", outcome="coalesced")
        ),
        "jobs_completed": int(
            metrics.total("repro_broker_jobs_total", outcome="completed")
        ),
        "resolver_rungs": {
            "synthesized": int(
                metrics.total("repro_resolver_rung_total", rung="synthesized")
            ),
            "cache": int(metrics.total("repro_resolver_rung_total", rung="cache")),
            "registry": int(metrics.total("repro_resolver_rung_total", rung="registry")),
        },
    }


def _cold_burst(tmp_path, metrics) -> dict:
    service, resolver = _make_service(tmp_path, "cold")
    with service:
        barrier = threading.Barrier(8)
        statuses = [None] * 8

        def caller(index):
            barrier.wait()
            statuses[index] = service.request(PINNED, timeout=120.0).status

        started = time.perf_counter()
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        elapsed = time.perf_counter() - started
        broker = service.broker.stats()

    assert statuses == ["ok"] * 8
    assert resolver.stats()["solves"] <= 1
    row = {
        "concurrent_callers": 8,
        "backend_solves": resolver.stats()["solves"],
        "coalesced": broker["coalesced"],
        "coalescing_ratio": broker["coalescing_ratio"],
        "wall_s": round(elapsed, 4),
        "metrics": _broker_metrics(metrics),
    }
    # The registry and the broker's own counters must agree on coalescing.
    assert row["metrics"]["broker_coalesced"] == broker["coalesced"]
    return row


def _warm_throughput(tmp_path, metrics) -> dict:
    service, resolver = _make_service(tmp_path, "warm")
    requests_total = 400
    client_threads = 8
    with service:
        # Warm both paths once so the measured phase serves from registry.
        assert service.request(PINNED, timeout=120.0).ok
        assert service.request(ROUTED, timeout=120.0).ok

        workload = []
        for index in range(requests_total):
            if index % 2:
                workload.append(PINNED)
            else:
                # Routed requests across sizes: all served by one table.
                workload.append(
                    PlanRequest(
                        "Allgather", "ring:4",
                        size_bytes=1024 << (index % 16), synchrony=1,
                    )
                )

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=client_threads) as pool:
            responses = list(
                pool.map(lambda r: service.request(r, timeout=120.0), workload)
            )
        elapsed = time.perf_counter() - started

        broker = service.broker.stats()
        registry_stats = service.registry.stats()

    ok = sum(1 for r in responses if r.ok)
    assert ok == requests_total
    resolver_stats = resolver.stats()
    answered = resolver_stats["solves"] + resolver_stats["registry_hits"]
    assert int(
        metrics.total("repro_broker_requests_total", outcome="coalesced")
    ) == broker["coalesced"]
    return {
        "requests": requests_total,
        "client_threads": client_threads,
        "wall_s": round(elapsed, 4),
        "requests_per_sec": round(requests_total / elapsed, 1),
        "coalescing_ratio": round(broker["coalescing_ratio"], 4),
        "backend_solves": resolver_stats["solves"],
        "registry_hits": resolver_stats["registry_hits"],
        "cache_hit_rate": round(resolver_stats["registry_hits"] / answered, 4)
        if answered else 0.0,
        "route_hits": registry_stats["route_hits"],
        "metrics": _broker_metrics(metrics),
    }


def test_service_throughput(tmp_path):
    from repro.telemetry import Metrics, set_metrics

    # A fresh registry per sub-run so the recorded series describe exactly
    # this benchmark's window (the process-global registry accumulates).
    cold_metrics = Metrics()
    previous = set_metrics(cold_metrics)
    try:
        cold = _cold_burst(tmp_path, cold_metrics)
        warm_metrics = Metrics()
        set_metrics(warm_metrics)
        warm = _warm_throughput(tmp_path, warm_metrics)
    finally:
        set_metrics(previous)
    payload = {
        "benchmark": "planning_service_throughput",
        "instance": "Allgather on ring:4 (quickstart)",
        "cold_burst": cold,
        "warm": warm,
    }
    output = write_bench_json("BENCH_service.json", payload)

    report(
        "BENCH_service: planning-service throughput",
        "\n".join(
            [
                f"cold burst : {cold['concurrent_callers']} callers -> "
                f"{cold['backend_solves']} solve(s), "
                f"{cold['coalesced']} coalesced ({cold['coalescing_ratio']:.0%})",
                f"warm       : {warm['requests']} requests in {warm['wall_s']}s "
                f"-> {warm['requests_per_sec']} req/s",
                f"hit rate   : {warm['cache_hit_rate']:.0%} served without solving "
                f"({warm['backend_solves']} solves, {warm['registry_hits']} hits, "
                f"coalescing {warm['coalescing_ratio']:.0%})",
                f"written to : {output}",
            ]
        ),
    )
    assert warm["requests_per_sec"] > 0
