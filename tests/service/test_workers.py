"""Resolver ladder (cache -> synthesis -> baseline), the one deadline that
bounds it, and the service facade."""

import threading
import time
from dataclasses import replace

import pytest

from repro.engine import AlgorithmCache, FamilyExecutor
from repro.service import (
    PlanRegistry,
    PlanRequest,
    PlanningService,
    SynthesisResolver,
    baseline_algorithm,
)
from repro.solver import SolveResult
from repro.telemetry import Metrics, set_metrics
from repro.topology import ring


@pytest.fixture
def metrics():
    """A registry of the test's own: the service keeps no counts but its
    series, and the process-wide registry holds every other test's too."""
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def registry(tmp_path):
    return PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))


def rungs(metrics) -> dict:
    """Which ladder rung answered, per rung, over the test's registry."""
    return metrics.breakdown("repro_resolver_rung_total", "rung")


PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=60.0)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)


class TestResolverLadder:
    def test_pinned_miss_synthesizes_then_hits_cache(self, registry, metrics):
        resolver = SynthesisResolver(registry)
        cold = resolver(PINNED, None)
        assert cold.ok and cold.source == "synthesized"
        cold.plan_object().algorithm.verify()
        warm = resolver(PINNED, None)
        assert warm.ok and warm.source == "cache"
        assert rungs(metrics) == {"synthesized": 1, "cache": 1}

    def test_unsat_request_is_an_error(self, registry):
        resolver = SynthesisResolver(registry)
        response = resolver(
            PlanRequest("Allgather", "ring:4", chunks=1, steps=1, rounds=1), None
        )
        assert response.status == "error"
        assert "unsatisfiable" in response.error

    def test_unknown_degrades_to_baseline(self, registry, monkeypatch):
        """Solver deadline exceeded -> a verified baseline, not an error."""
        from repro.core.synthesizer import SynthesisResult

        def fake_synthesize(instance, **kwargs):
            return SynthesisResult(instance=instance, status=SolveResult.UNKNOWN)

        import repro.core

        monkeypatch.setattr(repro.core, "synthesize", fake_synthesize)
        resolver = SynthesisResolver(registry)
        response = resolver(PINNED, 0.1)
        assert response.ok and response.source == "baseline"
        plan = response.plan_object()
        assert plan.algorithm.collective == "Allgather"
        assert plan.provenance["backend"] == "baseline"

    def test_unknown_without_baseline_times_out(self, registry, monkeypatch):
        from repro.core.synthesizer import SynthesisResult

        def fake_synthesize(instance, **kwargs):
            return SynthesisResult(instance=instance, status=SolveResult.UNKNOWN)

        import repro.core

        monkeypatch.setattr(repro.core, "synthesize", fake_synthesize)
        resolver = SynthesisResolver(registry)
        # Alltoall has no hand-written baseline in repro.baselines.
        response = resolver(
            PlanRequest("Alltoall", "fc:4", chunks=1, steps=1, rounds=1), 0.1
        )
        assert response.status == "timeout"
        assert "no baseline" in response.error

    def test_routed_builds_memoizes_and_reroutes(self, registry, metrics):
        resolver = SynthesisResolver(registry)
        cold = resolver(ROUTED, None)
        assert cold.ok and cold.source == "synthesized"
        assert cold.route is not None
        warm = resolver(ROUTED, None)
        assert warm.ok and warm.source == "registry"
        # A different size reuses the same memoized table: no new solve.
        other = resolver(
            PlanRequest("Allgather", "ring:4", size_bytes=1 << 10, synchrony=1), None
        )
        assert other.ok and other.source == "registry"
        assert rungs(metrics) == {"synthesized": 1, "registry": 2}

    def test_older_clients_routed_request_shares_the_table(self, registry, metrics):
        """A routed request as earlier clients send it (``encoding`` and
        ``prune`` at their one accepted value) and as clients send it now
        address one table, built once."""
        older_wire = {
            "version": 1, "collective": "Allgather", "topology": "ring:4",
            "root": 0, "synchrony": 1, "size_bytes": 1 << 20,
            "encoding": "sccl", "prune": True,
        }
        wire = ROUTED.to_json()
        assert set(older_wire) - set(wire) == {"encoding", "prune"}
        older, current = PlanRequest.from_json(older_wire), PlanRequest.from_json(wire)
        assert older.request_key() == current.request_key() == ROUTED.request_key()
        resolver = SynthesisResolver(registry)
        assert resolver(older, None).source == "synthesized"
        assert resolver(current, None).source == "registry"
        assert rungs(metrics) == {"synthesized": 1, "registry": 1}
        assert registry.table_count() == 1

    def test_combining_pinned_request_is_a_clean_error(self, registry):
        resolver = SynthesisResolver(registry)
        response = resolver(
            PlanRequest("Allreduce", "ring:4", chunks=1, steps=2, rounds=3), None
        )
        assert response.status == "error"
        assert "combining" in response.error

    def test_pinned_root_of_a_rootless_collective_is_an_error(self, registry, metrics):
        """Allgather has no root: root 7 is refused, not solved and cached
        under a second key for the root-0 schedule."""
        resolver = SynthesisResolver(registry)
        response = resolver(
            PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, root=7), None
        )
        assert response.status == "error"
        assert "Allgather has no root" in response.error
        assert len(registry.cache) == 0 and rungs(metrics) == {"error": 1}
        assert metrics.total("repro_solver_calls_total") == 0

    def test_cold_routed_build_forks_nothing(self, registry, monkeypatch):
        """A cold routed build sweeps in the worker thread: at the routed
        default k = 2 it constructs no process pool."""
        import repro.engine.dispatch

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a routed build constructed a PoolExecutor")

        monkeypatch.setattr(repro.engine.dispatch, "PoolExecutor", NoPool)
        request = PlanRequest("Allgather", "ring:6", size_bytes=4096)
        assert request.synchrony == 2
        response = SynthesisResolver(registry)(request, None)
        assert response.ok and response.source == "synthesized"
        assert response.route["signature"] == [2, 3, 5]
        _, _, table = registry.route(request)
        assert sorted(table.plans) == ["allgather_ring6_c2_s3_r5"]

    def test_routed_combining_collective_works(self, registry):
        # Routed mode goes through pareto_synthesize, which handles the
        # Section 3.5 delegation for combining collectives.
        resolver = SynthesisResolver(registry)
        response = resolver(
            PlanRequest("Allreduce", "ring:4", size_bytes=1 << 20, synchrony=1), None
        )
        assert response.ok
        plan = response.plan_object()
        assert plan.algorithm.collective == "Allreduce"


class TestOneDeadline:
    def test_a_cold_routed_dgx1_request_answers_before_its_deadline(self, registry):
        """The deadline bounds the whole sweep, not each probe: a cold routed
        DGX-1 build under 1.5 s answers ``ok`` in time, and the one worker
        is free for the pinned request behind it."""
        with PlanningService(registry, num_workers=1) as service:
            started = time.monotonic()
            routed = service.request(
                PlanRequest("Allgather", "dgx1", size_bytes=1 << 22, deadline_s=1.5)
            )
            routed_s = time.monotonic() - started
            pinned = service.request(replace(PINNED, deadline_s=1.0))
        assert routed.ok and routed_s < 1.5, (routed.status, routed_s)
        routed.plan_object()  # re-verifies on DGX-1
        assert pinned.ok and pinned.source == "synthesized"

    def test_a_cut_table_answers_once_and_the_next_build_resumes(
        self, registry, monkeypatch
    ):
        """A table from a sweep the deadline cut answers its request but is
        not memoized; the next build replays every probe the cut one
        decided from the cache and solves only the rest."""
        real_result = FamilyExecutor.result
        asked, found = [], []

        def result(self, probe):
            if found and probe.request.deadline is not None:
                # Found a point: hold this probe until the deadline passes.
                time.sleep(max(0.0, probe.request.deadline - time.monotonic()) + 0.01)
            answer = real_result(self, probe)
            asked.append((probe.key, answer.status))
            if answer.is_sat:
                found.append(probe.key)
            return answer

        monkeypatch.setattr(FamilyExecutor, "result", result)
        resolver = SynthesisResolver(registry)
        request = PlanRequest("Allgather", "ring:6", size_bytes=1 << 20, synchrony=1)
        cut = resolver(request, 1.0)
        assert cut.ok and cut.source == "synthesized"
        assert cut.route["signature"] == [1, 3, 3]
        assert registry.table_count() == 0
        decided = {key for key, status in asked if status is not SolveResult.UNKNOWN}
        assert decided == {(3, 3, 1)}

        asked.clear()
        full = resolver(request, None)
        assert full.ok and full.source == "synthesized"
        assert full.route["signature"] == [2, 4, 5]
        assert not decided & {key for key, _ in asked}
        assert registry.table_count() == 1
        assert resolver(request, None).source == "registry"


class TestRoutedBuildCoalescing:
    def test_mixed_size_burst_builds_one_table(self, registry, metrics):
        """Routed requests for different sizes share one routing table:
        a cold concurrent burst must run one frontier build, not N."""
        resolver = SynthesisResolver(registry)
        sizes = [1 << (10 + i) for i in range(8)]
        with PlanningService(registry, num_workers=4, resolver=resolver) as service:
            barrier = threading.Barrier(len(sizes))
            responses = [None] * len(sizes)

            def caller(index):
                barrier.wait()
                responses[index] = service.request(
                    PlanRequest(
                        "Allgather", "ring:4", size_bytes=sizes[index], synchrony=1,
                        deadline_s=120.0,
                    )
                )

            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(len(sizes))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)

        assert all(r is not None and r.ok for r in responses)
        # One pareto sweep for all sizes; every other size waited for it.
        assert rungs(metrics) == {"synthesized": 1, "registry": len(sizes) - 1}
        assert registry.table_count() == 1


class TestBaselines:
    @pytest.mark.parametrize(
        "collective", ["Allgather", "Allreduce", "Reducescatter", "Broadcast", "Reduce"]
    )
    def test_baseline_algorithms_verify(self, collective):
        algorithm = baseline_algorithm(collective, ring(4))
        assert algorithm is not None
        algorithm.verify()
        assert algorithm.collective == collective

    def test_no_baseline_for_alltoall(self):
        assert baseline_algorithm("Alltoall", ring(4)) is None

    @pytest.mark.parametrize("collective", ["Allgather", "Allreduce", "Reducescatter"])
    def test_dgx1_has_a_baseline_rung(self, collective):
        """DGX-1 has no ring baseline, but its NCCL rings verify: an UNKNOWN
        solve there is answered from the baseline rung, not timed out."""
        import time

        from repro.interchange import AlgorithmPlan
        from repro.service.workers import _baseline_response
        from repro.topology import dgx1

        request = PlanRequest(collective, "dgx1", chunks=1, steps=2, rounds=3)
        response = _baseline_response(
            request, request.request_key(), reason="solver deadline exceeded",
            started=time.monotonic(),
        )
        assert (response.status, response.source) == ("ok", "baseline")
        # Re-read at the trust boundary: the schedule verifies on DGX-1.
        plan = AlgorithmPlan.from_json(response.plan, verify=True)
        assert plan.matches_topology(dgx1())
        assert plan.algorithm.collective == collective


class TestEndToEndCoalescing:
    def test_eight_concurrent_identical_requests_one_solve(self, registry, metrics):
        """The acceptance criterion through the REAL resolver: 8 threads,
        one backend solve, seven coalesced waiters."""
        resolver = SynthesisResolver(registry)
        with PlanningService(registry, num_workers=4, resolver=resolver) as service:
            barrier = threading.Barrier(8)
            responses = [None] * 8

            def caller(index):
                barrier.wait()
                responses[index] = service.request(PINNED)

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)

            stats = service.stats()

        assert all(r is not None and r.ok for r in responses)
        for response in responses:
            response.plan_object().algorithm.verify()
        # Every caller that shared another's in-flight work is marked; the
        # solver ran at most once (cache hits can substitute under unlucky
        # scheduling, but never a second solve).
        ladder = stats["resolver"]["rungs"]
        assert ladder.get("synthesized", 0) <= 1
        assert stats["broker"]["coalesced"] + sum(ladder.values()) == 8
