"""Degraded-mode planning: fault board, content addressing, replanning.

Covers the fault-tolerance ladder end to end — FaultRequest validation,
the board's job keys (request key and fabric name), fault transitions that
delete nothing (every key hashes the fabric, so no healthy artifact reaches
a degraded request and ``clear`` serves the healthy plans warm; a cost-only
fault re-scores the table without a solve), resolver replanning
against the degraded fabric, the hardened broker (bounded waits, resolver
crash accounting), and the DGX-1 acceptance scenario over real HTTP.
"""

import shutil
import threading

import pytest

from repro.engine import AlgorithmCache
from repro.faults import (
    FaultError,
    FaultInjectionError,
    FaultSet,
    LinkDegraded,
    LinkDown,
    RankDown,
    execute_with_faults,
)
from repro.runtime import execute, lower
from repro.service import (
    DEFAULT_DEADLINE_S,
    Broker,
    FaultBoard,
    FaultRequest,
    FaultResponse,
    PlanRegistry,
    PlanRequest,
    PlanningService,
    ServerThread,
    ServiceError,
    SynthesisResolver,
    apply_fault_request,
    make_server,
    request_fault,
    request_plan,
    routing_key,
)
from repro.telemetry import Metrics, get_metrics, set_metrics
from repro.topology import dgx1, ring
from test_warm_path import comparable, held_table


def _registry(root) -> PlanRegistry:
    return PlanRegistry(cache=AlgorithmCache(root / "algorithms"))


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
    return _registry(tmp_path)


PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=60.0)
#: Satisfiable on ring:4 with and without the 0 -> 1 link.
PINNED_SLACK = PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=4)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1, deadline_s=120.0)

LINK_DOWN_01 = LinkDown(0, 1).to_json()


def used_links(algorithm):
    return {(s.src, s.dst) for step in algorithm.steps for s in step.sends}


class TestFaultRequestValidation:
    def test_round_trip(self):
        request = FaultRequest("ring:4", "register", (LINK_DOWN_01,))
        assert FaultRequest.from_json(request.to_json()) == request

    def test_unknown_action_rejected(self):
        with pytest.raises(ServiceError):
            FaultRequest("ring:4", "explode").validate()

    def test_register_requires_faults(self):
        with pytest.raises(ServiceError):
            FaultRequest("ring:4", "register").validate()

    def test_status_takes_no_faults(self):
        with pytest.raises(ServiceError):
            FaultRequest("ring:4", "status", (LINK_DOWN_01,)).validate()

    def test_malformed_fault_payload_rejected(self):
        with pytest.raises(ServiceError):
            FaultRequest("ring:4", "register", ({"kind": "gremlin"},)).validate()

    def test_bad_topology_spec_rejected(self):
        with pytest.raises(ServiceError):
            FaultRequest("nope:banana", "status").validate()

    def test_response_round_trip(self):
        response = FaultResponse(
            status="ok", topology="ring:4", action="register",
            faults=[LINK_DOWN_01], fingerprint="abc",
            degraded={"name": "ring4!deg-abc", "links_removed": 1},
        )
        restored = FaultResponse.from_json(response.to_json())
        assert restored == response
        assert restored.summary() == "fault register on ring:4: 1 active fault"


class TestFaultBoard:
    def test_healthy_board_is_transparent(self):
        board = FaultBoard()
        topology = ring(4)
        assert not board.get(topology)
        fabric = board.fabric(PINNED)
        assert not fabric.degraded
        assert fabric.topology.to_dict() == topology.to_dict()
        # Healthy fabric: the job key is the request key and the spec's name.
        assert board.job_key(PINNED) == (PINNED.request_key(), "ring4")

    def test_register_merges_and_clear_drops(self):
        board = FaultBoard()
        topology = ring(4)
        active = board.register(topology, FaultSet.of(LinkDown(0, 1)))
        assert len(active) == 1
        active = board.register(topology, FaultSet.of(LinkDown(1, 2)))
        assert len(active) == 2
        dropped = board.clear(topology)
        assert len(dropped) == 2
        assert not board.get(topology)

    def test_bad_registration_leaves_board_untouched(self):
        board = FaultBoard()
        topology = ring(4)
        board.register(topology, FaultSet.of(LinkDown(0, 1)))
        with pytest.raises(FaultError):
            board.register(topology, FaultSet.of(LinkDown(0, 2)))  # no chord in a ring
        assert len(board.get(topology)) == 1

    def test_job_key_changes_with_fault_state(self):
        """The fabric name carries the fault state; the request key, which
        every answer carries, does not change."""
        board = FaultBoard()
        topology = ring(4)
        healthy_key = board.job_key(PINNED)
        board.register(topology, FaultSet.of(LinkDown(0, 1)))
        faulted_key = board.job_key(PINNED)
        assert faulted_key != healthy_key
        assert faulted_key == (PINNED.request_key(), board.fabric(PINNED).topology.name)
        board.register(topology, FaultSet.of(LinkDown(1, 2)))
        assert board.job_key(PINNED) != faulted_key  # new fault, new epoch
        board.clear(topology)
        assert board.job_key(PINNED) == healthy_key

    def test_degraded_view_drops_the_dead_link(self):
        board = FaultBoard()
        topology = ring(4)
        board.register(topology, FaultSet.of(LinkDown(0, 1)))
        degraded = board.fabric(PINNED).topology
        assert (0, 1) not in degraded.links()
        assert degraded.name.startswith("ring4!deg-")

    def test_snapshot_lists_active_faults(self):
        board = FaultBoard()
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))
        snapshot = board.snapshot()
        assert snapshot["active_topologies"] == 1
        (described,) = snapshot["faults"]["ring4"]
        assert "0" in described and "1" in described


class TestRegistryInvalidation:
    def test_cost_change_addresses_a_fresh_routing_table(self, registry):
        """The routing key covers alpha/beta: degrading a link re-keys the
        table instead of silently reusing routes computed for old costs."""
        topology = ring(4)
        degraded = FaultSet.of(LinkDegraded(0, 1, beta_factor=4.0)).apply(topology)
        assert degraded.links() == topology.links()  # same structure...
        assert routing_key("Allgather", topology, synchrony=1) != routing_key(
            "Allgather", degraded, synchrony=1
        )

    @pytest.mark.parametrize(
        "fault",
        [
            LinkDown(0, 1),
            RankDown(2),
            LinkDegraded(0, 1, bandwidth=1),
            LinkDegraded(0, 1, beta_factor=4.0),
        ],
        ids=["link-down", "rank-down", "bandwidth-cap", "cost-only"],
    )
    def test_no_healthy_artifact_reaches_a_degraded_request(self, tmp_path, fault):
        """A registration alone, with every healthy file and memo still in
        place, answers exactly what a resolver built from nothing answers,
        and every plan it serves names the degraded fabric."""
        live = tmp_path / "live"
        board = FaultBoard()
        resolver = SynthesisResolver(_registry(live), fault_board=board)
        queries = (PINNED, PINNED_SLACK, ROUTED)
        for _ in range(3):  # solve, read back, answer from memory
            assert all(resolver(request).ok for request in queries)

        fault_set = FaultSet.of(fault)
        board.register(ring(4), fault_set)
        degraded = fault_set.apply(ring(4)).to_dict()
        for request in queries:
            scratch = tmp_path / "reference"
            shutil.rmtree(scratch, ignore_errors=True)
            shutil.copytree(live, scratch)
            fresh_board = FaultBoard()
            fresh_board.register(ring(4), fault_set)
            reference = SynthesisResolver(_registry(scratch), fault_board=fresh_board)(request)
            answer = resolver(request)
            assert comparable(answer) == comparable(reference), request.describe()
            if answer.ok:
                assert answer.plan["algorithm"]["topology"] == degraded


class TestApplyFaultRequest:
    def test_register_reports_degradation_and_deletes_nothing(self, registry):
        resolver = SynthesisResolver(registry)
        assert resolver(ROUTED, None).ok
        board = FaultBoard()
        response = apply_fault_request(
            board, FaultRequest("ring:4", "register", (LINK_DOWN_01,))
        )
        assert response.ok
        assert response.degraded["links_removed"] == 1
        assert board.get(ring(4))
        assert registry.table_count() == 1

    def test_status_reads_without_invalidating(self, registry):
        resolver = SynthesisResolver(registry)
        assert resolver(ROUTED, None).ok
        board = FaultBoard()
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))
        response = apply_fault_request(board, FaultRequest("ring:4", "status"))
        assert response.ok and len(response.faults) == 1
        assert registry.table_count() == 1

    def test_clear_keeps_the_degraded_artifacts(self, registry):
        """Tables built *while degraded* stay in memory after the repair:
        only the same fault state can address them again."""
        board = FaultBoard()
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))
        resolver = SynthesisResolver(registry, fault_board=board)
        assert resolver(ROUTED, None).ok  # builds a table for the DEGRADED ring
        assert registry.table_count() == 1
        response = apply_fault_request(board, FaultRequest("ring:4", "clear"))
        assert response.ok and not response.faults
        assert registry.table_count() == 1
        healthy = resolver(ROUTED, None)
        assert healthy.source == "synthesized"
        assert (0, 1) in used_links(healthy.plan_object().algorithm)
        assert registry.table_count() == 2

    def test_invalid_fault_is_an_error_response(self, registry):
        board = FaultBoard()
        response = apply_fault_request(
            board, FaultRequest("ring:4", "register", (LinkDown(0, 2).to_json(),))
        )
        assert response.status == "error"
        assert "0" in response.error and not board.get(ring(4))


class TestResolverReplanning:
    def test_routed_replan_avoids_the_dead_link(self, registry, metrics):
        board = FaultBoard()
        resolver = SynthesisResolver(registry, fault_board=board)
        healthy = resolver(ROUTED, None)
        assert healthy.ok
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))
        replanned = resolver(ROUTED, None)
        assert replanned.ok
        plan = replanned.plan_object()
        assert (0, 1) not in used_links(plan.algorithm)
        assert metrics.total("repro_resolver_replans_total") == 1

    def test_pinned_replan_verifies_against_degraded_topology(self, registry):
        board = FaultBoard()
        resolver = SynthesisResolver(registry, fault_board=board)
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))
        response = resolver(
            PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=4), None
        )
        assert response.ok
        plan = response.plan_object()  # re-verifies on import
        assert (0, 1) not in used_links(plan.algorithm)
        assert "!deg-" in plan.algorithm.topology.name


class TestFaultTransitionsKeepWhatTheyCanReuse:
    REGISTER = FaultRequest("ring:4", "register", (LINK_DOWN_01,))
    CLEAR = FaultRequest("ring:4", "clear")

    def test_clear_serves_the_healthy_plans_warm(self, registry):
        with PlanningService(registry, num_workers=1) as service:
            for _ in range(2):
                assert service.request(PINNED).ok and service.request(ROUTED).ok
            assert service.fault(self.REGISTER).ok
            assert service.request(ROUTED).source == "synthesized"  # degraded
            assert service.fault(self.CLEAR).ok
            calls = get_metrics().total("repro_solver_calls_total")
            answers = [service.request(PINNED), service.request(ROUTED)]
            assert [a.source for a in answers] == ["cache", "registry"]
            assert get_metrics().total("repro_solver_calls_total") == calls

    def test_a_cost_only_fault_re_ranks_the_table_without_a_solve(
        self, registry, tmp_path
    ):
        """An alpha/beta-only ``LinkDegraded`` keeps every structural key: the
        degraded table is scored from the cached verdicts, and after
        ``clear`` the healthy table is served from memory.  Neither costs a
        solver call or writes a file."""
        slower = LinkDegraded(0, 1, beta_factor=4.0).to_json()
        with PlanningService(registry, num_workers=1) as service:
            healthy = service.request(ROUTED)
            assert healthy.source == "synthesized"
            healthy_table = held_table(registry, ROUTED)
            files = sorted(tmp_path.rglob("*"))
            calls = get_metrics().total("repro_solver_calls_total")

            assert service.fault(FaultRequest("ring:4", "register", (slower,))).ok
            degraded = service.request(ROUTED)
            assert degraded.source == "synthesized"
            fabric = service.fault_board.fabric(ROUTED).topology
            assert degraded.plan["algorithm"]["topology"] == fabric.to_dict()
            table = held_table(registry, ROUTED, fabric)
            assert table is not healthy_table
            # The same plans, scored under the slower link.
            assert table.plans.keys() == healthy_table.plans.keys()
            for name, times in table.probe_times.items():
                assert times[-1] > healthy_table.probe_times[name][-1]

            assert service.fault(self.CLEAR).ok
            again = service.request(ROUTED)
            assert again.source == "registry" and again.route == healthy.route
            assert again.plan == healthy.plan
        assert get_metrics().total("repro_solver_calls_total") == calls
        assert sorted(tmp_path.rglob("*")) == files

    def test_the_same_fault_again_is_answered_warm(self, registry):
        with PlanningService(registry, num_workers=1) as service:
            assert service.fault(self.REGISTER).ok
            cold = [service.request(PINNED_SLACK), service.request(ROUTED)]
            assert [a.source for a in cold] == ["synthesized"] * 2
            assert service.fault(self.CLEAR).ok
            assert service.fault(self.REGISTER).ok
            calls = get_metrics().total("repro_solver_calls_total")
            warm = [service.request(PINNED_SLACK), service.request(ROUTED)]
            assert [a.source for a in warm] == ["cache", "registry"]
            assert [a.plan["algorithm"] for a in warm] == [a.plan["algorithm"] for a in cold]
            assert get_metrics().total("repro_solver_calls_total") == calls


class TestBrokerHardening:
    def test_deadline_less_wait_is_bounded_by_the_server(self):
        """A request with no deadline gets the server's default one, and so
        does the job behind it: nothing waits or solves unbounded."""
        broker = Broker(key_fn=PlanRequest.request_key)
        ticket = broker.submit(PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3))
        assert ticket.deadline == ticket.submitted_at + DEFAULT_DEADLINE_S
        job = broker.next_job()
        assert job.deadline == ticket.deadline
        assert 0 < job.remaining_s() <= DEFAULT_DEADLINE_S
        broker.close()

    def test_resolver_crash_is_counted_and_surfaced(self, registry, metrics):
        calls = {"n": 0}
        inner = SynthesisResolver(registry)

        def flaky(request, remaining_s):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("resolver bug")
            return inner(request, remaining_s)

        with PlanningService(registry, num_workers=1, resolver=flaky) as service:
            crashed = service.request(PINNED)
            assert crashed.status == "error"
            assert "resolver failed" in crashed.error
            assert crashed.error_kind == "RuntimeError"
            # The pool survives the crash and keeps serving.
            recovered = service.request(PINNED)
            assert recovered.ok
            assert service.stats()["broker"]["resolver_crashes"] == 1


class TestConcurrentFaultAndPlan:
    def test_plans_racing_a_fault_registration_stay_consistent(self, registry):
        """Satellite race test: plan requests issued concurrently with a
        fault registration must each be internally consistent — whichever
        epoch they land in, the plan they carry re-verifies, and any plan
        issued under the degraded epoch avoids the dead link."""
        board = FaultBoard()
        resolver = SynthesisResolver(registry, fault_board=board)
        with PlanningService(
            registry, num_workers=4, resolver=resolver, fault_board=board
        ) as service:
            barrier = threading.Barrier(5)
            responses = [None] * 4
            fault_response = [None]

            def plan(index):
                barrier.wait()
                responses[index] = service.request(ROUTED)

            def fault():
                barrier.wait()
                fault_response[0] = service.fault(
                    FaultRequest("ring:4", "register", (LINK_DOWN_01,))
                )

            threads = [threading.Thread(target=plan, args=(i,)) for i in range(4)]
            threads.append(threading.Thread(target=fault))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)

            assert fault_response[0].ok
            for response in responses:
                assert response is not None and response.ok
                plan_obj = response.plan_object()  # re-verifies
                if "!deg-" in plan_obj.algorithm.topology.name:
                    assert (0, 1) not in used_links(plan_obj.algorithm)

            # After the dust settles the degraded epoch is authoritative.
            final = service.request(ROUTED)
            assert final.ok
            assert (0, 1) not in used_links(final.plan_object().algorithm)


class TestDGX1DegradedModeEndToEnd:
    """The acceptance scenario over real HTTP: after a LinkDown on a DGX-1
    service the next /v1/plan is re-synthesized and verified against the
    degraded topology, the fault-injecting executor proves the old plan
    fails where the new one runs clean, and clear serves the old plan
    again from the cache."""

    REQUEST = PlanRequest(
        "Allgather", "dgx1", chunks=1, steps=2, rounds=2, deadline_s=120
    )

    def test_link_down_replan_old_fails_new_runs(self, registry):
        with PlanningService(registry, num_workers=2) as service:
            with ServerThread(make_server(service, port=0)) as thread:
                url = thread.url

                cold = request_plan(url, self.REQUEST)
                assert cold.ok and cold.source == "synthesized"
                old_plan = cold.plan_object()
                dead = sorted(used_links(old_plan.algorithm))[0]

                fault = request_fault(
                    url,
                    FaultRequest("dgx1", "register", (LinkDown(*dead).to_json(),)),
                )
                assert fault.ok
                assert fault.degraded["links_removed"] == 1

                replanned = request_plan(url, self.REQUEST)
                assert replanned.ok and replanned.source == "synthesized"
                new_plan = replanned.plan_object()  # verified against degraded fabric
                assert "!deg-" in new_plan.algorithm.topology.name
                assert dead not in used_links(new_plan.algorithm)

                # The executor is the ground truth: the pre-fault plan dies
                # on the dead link, the replanned one completes.
                faults = FaultSet.of(LinkDown(*dead))
                healthy_topology = dgx1()
                with pytest.raises(FaultInjectionError) as excinfo:
                    execute_with_faults(
                        lower(old_plan.algorithm), old_plan.algorithm,
                        faults, healthy_topology,
                    )
                assert (excinfo.value.violations[0].src, excinfo.value.violations[0].dst) == dead
                result = execute_with_faults(
                    lower(new_plan.algorithm), new_plan.algorithm,
                    faults, healthy_topology,
                )
                assert result.transfers == execute(
                    lower(new_plan.algorithm), new_plan.algorithm
                ).transfers

                # Status sees the fault; clear repairs the fabric, whose
                # healthy plan was never deleted: it is served, not re-solved.
                status = request_fault(url, FaultRequest("dgx1", "status"))
                assert status.ok and len(status.faults) == 1
                cleared = request_fault(url, FaultRequest("dgx1", "clear"))
                assert cleared.ok and not cleared.faults
                healthy_again = request_plan(url, self.REQUEST)
                assert healthy_again.ok and healthy_again.source == "cache"
                assert healthy_again.plan["algorithm"] == cold.plan["algorithm"]
