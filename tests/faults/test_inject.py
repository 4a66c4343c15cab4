"""Tests for fault injection: deployed plans must fail on dead links."""

import pytest

from repro.baselines import ring_allgather, single_ring
from repro.core import make_instance, synthesize
from repro.faults import (
    FaultInjectionError,
    FaultSet,
    LinkDegraded,
    LinkDown,
    execute_with_faults,
    scan_program,
    simulate_with_faults,
)
from repro.runtime import Simulator, execute, lower
from repro.topology import ring


@pytest.fixture(scope="module")
def ring4():
    return ring(4)


@pytest.fixture(scope="module")
def allgather_plan(ring4):
    result = synthesize(make_instance("Allgather", ring4, 1, 3, 3))
    assert result.is_sat
    algorithm = result.algorithm
    return algorithm, lower(algorithm)


def used_links(algorithm):
    return {(s.src, s.dst) for step in algorithm.steps for s in step.sends}


class TestScan:
    def test_clean_program_has_no_violations(self, ring4, allgather_plan):
        _, program = allgather_plan
        assert scan_program(program, FaultSet.of(), ring4) == []

    def test_dead_link_is_reported_with_step_detail(self, ring4, allgather_plan):
        algorithm, program = allgather_plan
        link = sorted(used_links(algorithm))[0]
        violations = scan_program(program, FaultSet.of(LinkDown(*link)), ring4)
        assert violations
        first = violations[0]
        assert (first.src, first.dst) == link
        assert 0 <= first.step < algorithm.num_steps

    def test_explicit_link_set_needs_no_topology(self, allgather_plan):
        algorithm, program = allgather_plan
        link = sorted(used_links(algorithm))[0]
        assert scan_program(program, {link})

    def test_fault_set_without_topology_rejected(self, allgather_plan):
        from repro.faults import FaultError

        _, program = allgather_plan
        with pytest.raises(FaultError):
            scan_program(program, FaultSet.of(LinkDown(0, 1)))


class TestExecuteWithFaults:
    def test_every_used_link_down_is_detected(self, ring4, allgather_plan):
        """The acceptance property: a LinkDown on ANY link the plan sends
        over must be detected — no dead send slips through."""
        algorithm, program = allgather_plan
        links = used_links(algorithm)
        assert links  # the plan moves data
        for link in sorted(links):
            with pytest.raises(FaultInjectionError) as excinfo:
                execute_with_faults(
                    program, algorithm, FaultSet.of(LinkDown(*link)), ring4
                )
            assert (excinfo.value.violations[0].src, excinfo.value.violations[0].dst) == link

    def test_unrelated_fault_executes_cleanly(self, ring4, allgather_plan):
        algorithm, program = allgather_plan
        unused = sorted(ring4.links() - used_links(algorithm))
        if not unused:
            pytest.skip("plan uses every link of the topology")
        result = execute_with_faults(
            program, algorithm, FaultSet.of(LinkDown(*unused[0])), ring4
        )
        assert result.transfers == execute(program, algorithm).transfers

    def test_error_message_names_earliest_step(self, ring4):
        algorithm = ring_allgather(ring4, single_ring(ring4))
        program = lower(algorithm)
        link = sorted(used_links(algorithm))[0]
        with pytest.raises(FaultInjectionError) as excinfo:
            execute_with_faults(program, algorithm, {link})
        err = excinfo.value
        assert err.violations == sorted(
            err.violations, key=lambda v: (v.step, v.src, v.dst, v.chunk)
        )
        assert f"{err.violations[0].src} sends" in str(err)


class TestSimulateWithFaults:
    def test_dead_link_raises(self, ring4, allgather_plan):
        algorithm, program = allgather_plan
        link = sorted(used_links(algorithm))[0]
        with pytest.raises(FaultInjectionError):
            simulate_with_faults(program, ring4, FaultSet.of(LinkDown(*link)), 1 << 20)

    def test_degradation_inflates_estimate(self, ring4, allgather_plan):
        algorithm, program = allgather_plan
        link = sorted(used_links(algorithm))[0]
        healthy = Simulator(ring4).simulate(program, 1 << 20).total_time_s
        degraded = simulate_with_faults(
            program,
            ring4,
            FaultSet.of(LinkDegraded(*link, beta_factor=16.0)),
            1 << 20,
        )
        assert degraded.total_time_s > healthy
