"""Fault-replanning latency benchmark -> BENCH_faults.json.

Measures what degraded-mode operation costs on the quickstart instance
(Allgather, 4-node ring) plus a DGX-1 pinned plan:

* **fault registration** — the control-plane cost of ``/v1/fault``
  register: a board mutation only (every artifact is keyed by the fabric
  it was built for, so nothing is deleted);
* **cold replan** — first plan request after a LinkDown: a fresh
  synthesis against the degraded topology;
* **warm replan** — the same degraded request again: served from the
  (degraded-keyed) registry, no solve;
* **baseline fallback** — replan under a deadline too tight to solve:
  the ladder degrades to a verified baseline instead of erroring.

The numbers land in ``BENCH_faults.json`` under ``.bench_build/`` (or
``$SCCL_BENCH_DIR``).  Everything here must stay fast: this file runs
inside the tier-1 suite.  Timed calls run with the cyclic garbage
collector paused, as :mod:`timeit` does: late in the suite a full
collection takes tens of milliseconds, longer than a cold replan, and it
lands on whichever request happens to trigger it.
"""

import gc
import time

import pytest

from repro.engine import AlgorithmCache
from repro.faults import FaultSet, LinkDegraded, LinkDown
from repro.service import (
    FaultBoard,
    FaultRequest,
    PlanRegistry,
    PlanRequest,
    PlanningService,
    SynthesisResolver,
    apply_fault_request,
)
from repro.telemetry import Metrics, set_metrics

from conftest import report, write_bench_json

ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1, deadline_s=120.0)
DGX1_PINNED = PlanRequest("Allgather", "dgx1", chunks=1, steps=2, rounds=2)


def _timed(fn):
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def _ring_replan(tmp_path, metrics) -> dict:
    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "ring" / "algorithms"))
    board = FaultBoard()
    resolver = SynthesisResolver(registry, fault_board=board)
    with PlanningService(
        registry, num_workers=2, resolver=resolver, fault_board=board
    ) as service:
        healthy, healthy_s = _timed(
            lambda: service.request(ROUTED)
        )
        assert healthy.ok

        fault, register_s = _timed(
            lambda: service.fault(
                FaultRequest("ring:4", "register", (LinkDown(0, 1).to_json(),))
            )
        )
        assert fault.ok

        cold, cold_s = _timed(lambda: service.request(ROUTED))
        assert cold.ok
        solves = int(metrics.value("repro_resolver_rung_total", rung="synthesized"))
        warm, warm_s = _timed(lambda: service.request(ROUTED))
        assert warm.ok and warm.source in ("registry", "cache")
        assert metrics.value("repro_resolver_rung_total", rung="synthesized") == solves

    return {
        "instance": "Allgather on ring:4, routed, LinkDown(0, 1)",
        "healthy_cold_plan_s": round(healthy_s, 4),
        "fault_register_s": round(register_s, 4),
        "replan_cold_s": round(cold_s, 4),
        "replan_warm_s": round(warm_s, 4),
        "replan_speedup_warm_vs_cold": round(cold_s / warm_s, 1) if warm_s else None,
        "backend_solves": solves,
    }


def _dgx1_replan(tmp_path) -> dict:
    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "dgx1" / "algorithms"))
    board = FaultBoard()
    resolver = SynthesisResolver(registry, fault_board=board)

    healthy, healthy_s = _timed(lambda: resolver(DGX1_PINNED, None))
    assert healthy.ok
    dead = sorted(
        (s.src, s.dst)
        for step in healthy.plan_object().algorithm.steps
        for s in step.sends
    )[0]

    fault, register_s = _timed(
        lambda: apply_fault_request(
            board, FaultRequest("dgx1", "register", (LinkDown(*dead).to_json(),))
        )
    )
    assert fault.ok

    cold, cold_s = _timed(lambda: resolver(DGX1_PINNED, None))
    assert cold.ok and cold.source == "synthesized"
    warm, warm_s = _timed(lambda: resolver(DGX1_PINNED, None))
    assert warm.ok and warm.source == "cache"

    return {
        "instance": f"Allgather on dgx1, pinned (1,2,2), LinkDown{dead}",
        "healthy_cold_plan_s": round(healthy_s, 4),
        "fault_register_s": round(register_s, 4),
        "replan_cold_s": round(cold_s, 4),
        "replan_warm_s": round(warm_s, 4),
    }


def _baseline_fallback(tmp_path, monkeypatch) -> dict:
    """The ladder's last rung, measured deterministically: the solver is
    forced to exhaust its budget (UNKNOWN), so the degraded replan comes
    from a verified hand-written baseline instead of a synthesis."""
    from repro.core.synthesizer import SynthesisResult
    from repro.solver import SolveResult

    registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "fallback" / "algorithms"))
    board = FaultBoard()
    # Cost-only degradation: the fabric keeps its ring structure (so the
    # hand-written ring baseline still applies) but the link is 8x slower.
    board.register(
        FaultRequest("ring:4", "status").resolve_topology(),
        FaultSet.of(LinkDegraded(0, 1, beta_factor=8.0)),
    )
    resolver = SynthesisResolver(registry, fault_board=board)

    def exhausted_synthesize(instance, **kwargs):
        return SynthesisResult(instance=instance, status=SolveResult.UNKNOWN)

    import repro.core

    monkeypatch.setattr(repro.core, "synthesize", exhausted_synthesize)
    fallback, fallback_s = _timed(
        lambda: resolver(
            PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=4), 5.0
        )
    )
    assert fallback.ok and fallback.source == "baseline"

    return {
        "instance": "Allgather on ring:4, pinned, LinkDegraded(0, 1, 8x), solver exhausted",
        "baseline_fallback_s": round(fallback_s, 4),
        "source": fallback.source,
    }


@pytest.fixture
def metrics():
    """A registry of the benchmark's own: the process-wide one accumulates."""
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


def test_fault_replanning_latency(tmp_path, monkeypatch, metrics):
    ring_stats = _ring_replan(tmp_path, metrics)
    dgx1_stats = _dgx1_replan(tmp_path)
    fallback_stats = _baseline_fallback(tmp_path, monkeypatch)
    payload = {
        "benchmark": "fault_replanning_latency",
        "ring_routed": ring_stats,
        "dgx1_pinned": dgx1_stats,
        "baseline_fallback": fallback_stats,
    }
    output = write_bench_json("BENCH_faults.json", payload)

    report(
        "BENCH_faults: degraded-mode replanning latency",
        "\n".join(
            [
                f"ring routed : register {ring_stats['fault_register_s']}s, "
                f"cold replan {ring_stats['replan_cold_s']}s, "
                f"warm {ring_stats['replan_warm_s']}s",
                f"dgx1 pinned : register {dgx1_stats['fault_register_s']}s, "
                f"cold replan {dgx1_stats['replan_cold_s']}s, "
                f"warm {dgx1_stats['replan_warm_s']}s",
                f"fallback    : {fallback_stats['baseline_fallback_s']}s "
                f"(solver exhausted -> {fallback_stats['source']})",
                f"written to  : {output}",
            ]
        ),
    )
    assert ring_stats["replan_warm_s"] <= ring_stats["replan_cold_s"]
