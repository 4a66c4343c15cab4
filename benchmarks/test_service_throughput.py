"""Planning-service throughput benchmark -> BENCH_service.json.

Measures the serving-layer quantities the ROADMAP's north star cares
about, on the quickstart instance (Allgather, 4-node ring):

* **cold burst** — 8 concurrent identical requests against an empty
  registry: exactly one backend solve, the rest coalesced (the PR's
  acceptance criterion, measured rather than asserted-only);
* **warm throughput** — a multi-threaded client mix of pinned and routed
  requests over a hot registry: requests/sec, coalescing ratio and cache
  hit rate.

Every count is read from the service's ``/v1/stats`` view of the metrics
registry, the one ledger ``/v1/metrics`` also serves.

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

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=120.0)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1, deadline_s=120.0)


def _make_service(tmp_path, name):
    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / name / "algorithms"))
    return PlanningService(registry, num_workers=4, resolver=SynthesisResolver(registry))


def _cold_burst(tmp_path) -> dict:
    service = _make_service(tmp_path, "cold")
    with service:
        barrier = threading.Barrier(8)
        statuses = [None] * 8

        def caller(index):
            barrier.wait()
            statuses[index] = service.request(PINNED).status

        started = time.perf_counter()
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        elapsed = time.perf_counter() - started
        stats = service.stats()

    assert statuses == ["ok"] * 8
    broker, rungs = stats["broker"], stats["resolver"]["rungs"]
    assert rungs.get("synthesized", 0) <= 1
    # Every caller either shared another's job or was answered by one rung.
    assert broker["coalesced"] + sum(rungs.values()) == 8
    return {
        "concurrent_callers": 8,
        "backend_solves": rungs.get("synthesized", 0),
        "coalesced": broker["coalesced"],
        "coalescing_ratio": broker["coalescing_ratio"],
        "wall_s": round(elapsed, 4),
        "resolver_rungs": rungs,
    }


def _warm_throughput(tmp_path) -> dict:
    service = _make_service(tmp_path, "warm")
    requests_total = 400
    client_threads = 8
    with service:
        # Warm both paths once so the measured phase serves from registry.
        assert service.request(PINNED).ok
        assert service.request(ROUTED).ok

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
            responses = list(pool.map(service.request, workload))
        elapsed = time.perf_counter() - started
        stats = service.stats()

    ok = sum(1 for r in responses if r.ok)
    assert ok == requests_total
    broker, rungs = stats["broker"], stats["resolver"]["rungs"]
    solves = rungs.get("synthesized", 0)
    hits = rungs.get("cache", 0) + rungs.get("registry", 0)
    return {
        "requests": requests_total,
        "client_threads": client_threads,
        "wall_s": round(elapsed, 4),
        "requests_per_sec": round(requests_total / elapsed, 1),
        "coalescing_ratio": round(broker["coalescing_ratio"], 4),
        "backend_solves": solves,
        "registry_hits": hits,
        "cache_hit_rate": round(hits / (solves + hits), 4) if solves + hits else 0.0,
        "warm_hits": stats["resolver"]["warm_hits"],
        "resolver_rungs": rungs,
    }


def test_service_throughput(tmp_path):
    from repro.telemetry import Metrics, set_metrics

    # A fresh registry per sub-run so the service's counts describe exactly
    # this benchmark's window (the process-global registry accumulates).
    previous = set_metrics(Metrics())
    try:
        cold = _cold_burst(tmp_path)
        set_metrics(Metrics())
        warm = _warm_throughput(tmp_path)
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
