"""Tests for Algorithm run semantics, verification and cost."""

import copy
import dataclasses
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from repro.collectives import get_collective
from repro.core import Algorithm, AlgorithmError, Send, Step
from repro.topology import BandwidthConstraint, ring, fully_connected


def make_ring_allgather_c1():
    """Hand-written 2-step Allgather on a 4-ring (each node forwards left/right)."""
    topo = ring(4)
    spec = get_collective("Allgather")
    pre = spec.precondition(4, 1)
    post = spec.postcondition(4, 1)
    step0 = Step(rounds=1, sends=tuple(
        Send(chunk=n, src=n, dst=(n + 1) % 4) for n in range(4)
    ) + tuple(
        Send(chunk=n, src=n, dst=(n - 1) % 4) for n in range(4)
    ))
    step1 = Step(rounds=1, sends=tuple(
        Send(chunk=(n - 1) % 4, src=n, dst=(n + 1) % 4) for n in range(4)
    ))
    return Algorithm(
        name="ring4_allgather_hand",
        collective="Allgather",
        topology=topo,
        chunks_per_node=1,
        num_chunks=4,
        precondition=pre,
        postcondition=post,
        steps=[step0, step1],
    )


class TestSendAndStep:
    def test_self_send_rejected(self):
        with pytest.raises(AlgorithmError):
            Send(chunk=0, src=1, dst=1)

    def test_bad_op_rejected(self):
        with pytest.raises(AlgorithmError):
            Send(chunk=0, src=0, dst=1, op="teleport")

    def test_negative_rounds_rejected(self):
        with pytest.raises(AlgorithmError):
            Step(rounds=-1)


class TestAlgorithmProperties:
    def test_signature_and_costs(self):
        algo = make_ring_allgather_c1()
        assert algo.signature() == (1, 2, 2)
        assert algo.num_steps == 2
        assert algo.total_rounds == 2
        assert algo.bandwidth_cost == Fraction(2, 1)
        assert algo.synchrony == 0
        assert sum(step.num_sends for step in algo.steps) == 12

    def test_cost_model(self):
        algo = make_ring_allgather_c1()
        cost = algo.cost(size_bytes=1000, alpha=1e-6, beta=1e-9)
        assert cost == pytest.approx(2 * 1e-6 + 2 * 1000 * 1e-9)

    def test_verify_valid_algorithm(self):
        make_ring_allgather_c1().verify()

    def test_describe_contains_schedule(self):
        text = make_ring_allgather_c1().describe()
        assert "step 0" in text and "step 1" in text
        assert "Allgather" in text


class TestVerificationFailures:
    def test_missing_chunk_detected(self):
        algo = make_ring_allgather_c1()
        algo.steps = [algo.steps[0]]  # drop the second step
        with pytest.raises(AlgorithmError):
            algo.verify()

    def test_send_of_absent_chunk_detected(self):
        algo = make_ring_allgather_c1()
        # Node 0 sends chunk 2 it does not hold at step 0.
        bad = Step(rounds=1, sends=(Send(chunk=2, src=0, dst=1),))
        algo.steps = [bad] + algo.steps
        with pytest.raises(AlgorithmError, match="does not hold"):
            algo.run()

    def test_bandwidth_violation_detected(self):
        algo = make_ring_allgather_c1()
        # Cram an extra send onto an already-full unit link at step 0.
        extra = Send(chunk=1, src=1, dst=2)
        algo.steps[0] = Step(rounds=1, sends=algo.steps[0].sends + (extra,))
        with pytest.raises(AlgorithmError, match="exceed bandwidth"):
            algo.check_bandwidth()

    def test_send_on_missing_link_detected(self):
        algo = make_ring_allgather_c1()
        algo.steps[0] = Step(rounds=1, sends=(Send(chunk=0, src=0, dst=2),))
        with pytest.raises(AlgorithmError, match="non-existent link"):
            algo.check_bandwidth()

    def test_double_counting_in_reduction_detected(self):
        topo = fully_connected(3)
        pre = frozenset((0, n) for n in range(3))
        post = frozenset({(0, 0)})
        # Node 1 and node 2 both fold their partial into node 0, but node 2
        # first absorbs node 1's partial — then node 1 sends again: overlap.
        steps = [
            Step(rounds=1, sends=(Send(0, 1, 2, op="reduce"),)),
            Step(rounds=1, sends=(Send(0, 2, 0, op="reduce"), Send(0, 1, 0, op="reduce"))),
        ]
        algo = Algorithm(
            name="bad_reduce", collective="Reduce", topology=topo,
            chunks_per_node=1, num_chunks=1, precondition=pre, postcondition=post,
            steps=steps, combining=True,
        )
        with pytest.raises(AlgorithmError, match="double-counts"):
            algo.verify()

    def test_incomplete_reduction_detected(self):
        topo = fully_connected(3)
        pre = frozenset((0, n) for n in range(3))
        post = frozenset({(0, 0)})
        steps = [Step(rounds=1, sends=(Send(0, 1, 0, op="reduce"),))]
        algo = Algorithm(
            name="partial_reduce", collective="Reduce", topology=topo,
            chunks_per_node=1, num_chunks=1, precondition=pre, postcondition=post,
            steps=steps, combining=True,
        )
        with pytest.raises(AlgorithmError, match="missing contributions"):
            algo.verify()


class TestTransformations:
    def test_serialization_roundtrip(self):
        algo = make_ring_allgather_c1()
        data = algo.to_dict()
        restored = Algorithm.from_dict(data)
        restored.verify()
        assert restored.signature() == algo.signature()
        assert restored.steps == algo.steps

    def test_link_loads_of_the_hand_written_ring(self):
        loads = Counter(
            (send.src, send.dst) for step in make_ring_allgather_c1().steps for send in step.sends
        )
        # Step 0 uses every link once; step 1 uses the 4 forward links once more.
        assert loads[(0, 1)] == 2
        assert loads[(1, 0)] == 1
        assert sum(loads.values()) == 12


class TestSharedConstraints:
    def bus(self):
        """Four nodes on one shared unit-bandwidth bus."""
        topo = fully_connected(4)
        topo.add_shared_constraint(sorted(topo.links()), 1)
        return topo

    def test_two_sends_in_one_round_overload_the_bus(self):
        algo = make_ring_allgather_c1()
        algo.topology = self.bus()
        algo.steps = [Step(rounds=1, sends=(Send(0, 0, 1), Send(2, 2, 3)))]
        with pytest.raises(AlgorithmError, match="exceed bandwidth"):
            algo.check_bandwidth()

    def test_one_send_per_round_fits_the_bus(self):
        algo = make_ring_allgather_c1()
        algo.topology = self.bus()
        algo.steps = [Step(rounds=2, sends=(Send(0, 0, 1), Send(2, 2, 3)))]
        algo.check_bandwidth()


@pytest.fixture
def full_checks(monkeypatch):
    """Counts full verifications: check_bandwidth runs once per full check."""
    calls = []
    check_bandwidth = Algorithm.check_bandwidth

    def counting(self):
        calls.append(self.name)
        check_bandwidth(self)

    monkeypatch.setattr(Algorithm, "check_bandwidth", counting)
    return calls


class TestVerificationWitness:
    """verify() checks a content in full once — and again after any change."""

    def test_unchanged_algorithm_is_checked_once(self, full_checks):
        algo = make_ring_allgather_c1()
        for _ in range(3):
            algo.verify()
        assert len(full_checks) == 1

    def test_failed_check_is_repeated(self, full_checks):
        algo = make_ring_allgather_c1()
        algo.verify()
        algo.steps.pop()
        for _ in range(2):
            with pytest.raises(AlgorithmError):
                algo.verify()
        assert len(full_checks) == 3

    # Each edit invalidates a verified algorithm; the error is the parent commit's.
    def _drop_step(algo):
        del algo.steps[1]

    def _append_step(algo):
        algo.steps.append(Step(rounds=1, sends=(Send(chunk=0, src=0, dst=2),)))

    def _replace_step(algo):
        algo.steps[0] = Step(rounds=1, sends=algo.steps[0].sends[4:])

    def _drop_used_link(algo):
        algo.topology.constraints = [
            c for c in algo.topology.constraints if (0, 1) not in c.links
        ]

    def _drop_used_link_in_place(algo):
        constraints = algo.topology.constraints
        del constraints[next(i for i, c in enumerate(constraints) if (0, 1) in c.links)]

    def _lower_bandwidth(algo):
        constraints = algo.topology.constraints
        index = next(i for i, c in enumerate(constraints) if (0, 1) in c.links)
        constraints[index] = dataclasses.replace(constraints[index], bandwidth=0)

    def _swap_precondition(algo):
        algo.precondition = frozenset({(0, 0)})

    def _swap_postcondition(algo):
        algo.postcondition = algo.postcondition | {(4, 0)}

    @pytest.mark.parametrize("edit, message", [
        (_drop_step, "never reaches"),
        (_append_step, "non-existent link"),
        (_replace_step, "does not hold"),
        (_drop_used_link, "non-existent link"),
        (_drop_used_link_in_place, "non-existent link"),
        (_lower_bandwidth, "non-existent link"),
        (_swap_precondition, "does not hold"),
        (_swap_postcondition, "never reaches"),
    ])
    def test_every_input_of_the_check_is_watched(self, edit, message, full_checks):
        algo = make_ring_allgather_c1()
        algo.verify()
        edit(algo)
        with pytest.raises(AlgorithmError, match=message):
            algo.verify()
        assert len(full_checks) == 2

    def test_lowered_bandwidth_is_noticed(self):
        algo = make_ring_allgather_c1()
        constraints = algo.topology.constraints
        constraints[:] = [dataclasses.replace(c, bandwidth=2) for c in constraints]
        algo.steps[0] = Step(rounds=1, sends=algo.steps[0].sends + (Send(1, 1, 2),))
        algo.verify()
        index = next(i for i, c in enumerate(constraints) if (1, 2) in c.links)
        constraints[index] = dataclasses.replace(constraints[index], bandwidth=1)
        with pytest.raises(AlgorithmError, match="exceed bandwidth 1 x 1"):
            algo.verify()

    def test_flipped_combining_is_noticed(self):
        algo = Algorithm(
            name="reduce_fc3", collective="Reduce", topology=fully_connected(3),
            chunks_per_node=1, num_chunks=1,
            precondition=frozenset((0, n) for n in range(3)), postcondition=frozenset({(0, 0)}),
            steps=[Step(rounds=1, sends=(Send(0, 1, 0, op="reduce"), Send(0, 2, 0, op="reduce")))],
            combining=True,
        )
        algo.verify()
        algo.combining = False
        with pytest.raises(AlgorithmError, match="double-counts"):
            algo.verify()

    def test_placements_given_as_mutable_sets_are_watched(self):
        algo = make_ring_allgather_c1()
        algo.postcondition = set(algo.postcondition)
        algo.verify()
        algo.postcondition.add((4, 0))
        with pytest.raises(AlgorithmError, match="never reaches"):
            algo.verify()

    def test_step_and_constraint_are_immutable_all_the_way_down(self):
        step = Step(rounds=1, sends=[Send(0, 0, 1)])
        assert step.sends == (Send(0, 0, 1),)
        constraint = BandwidthConstraint({(0, 1)}, 1)
        assert isinstance(constraint.links, frozenset)

    def test_copies_start_without_a_witness(self, full_checks, tmp_path):
        from repro.interchange import (
            from_msccl_xml, plan_from_algorithm, read_plan, to_msccl_xml, write_plan,
        )

        algo = make_ring_allgather_c1()
        algo.verify()
        copies = [
            dataclasses.replace(algo),
            algo.renamed("other"),
            Algorithm.from_dict(algo.to_dict()),
            pickle.loads(pickle.dumps(algo)),
            copy.copy(algo),
            copy.deepcopy(algo),
        ]
        assert len(full_checks) == 1
        for index, duplicate in enumerate(copies, start=2):
            assert duplicate._witness is None
            duplicate.verify()
            assert len(full_checks) == index
        # Both imports verify their own copy in full, whatever the original carries.
        before = len(full_checks)
        from_msccl_xml(to_msccl_xml(algo))
        read_plan(write_plan(plan_from_algorithm(algo), tmp_path / "plan.json"))
        assert len(full_checks) == before + 2

    def test_witness_is_invisible(self):
        from repro.interchange import plan_from_algorithm

        fresh, verified = make_ring_allgather_c1(), make_ring_allgather_c1()
        verified.verify()
        assert verified._witness is not None
        assert verified == fresh
        assert repr(verified) == repr(fresh)
        assert verified.to_dict() == fresh.to_dict()
        assert "witness" not in repr(verified)
        assert "witness" not in plan_from_algorithm(verified).dumps()

    def test_pipeline_verifies_each_artefact_once(self, full_checks):
        """The benchmark's stage sequence: 3 full checks, 7 before the witness."""
        import json

        from repro.baselines import baseline_suite
        from repro.interchange import (
            AlgorithmPlan, from_msccl_xml, plan_from_algorithm, to_msccl_xml,
        )
        from repro.runtime import PROTOCOLS, execute, generate_cuda_like_source, lower
        from repro.topology import dgx1

        # replace(): a DGX-1 algorithm nobody has verified yet.
        algorithm = dataclasses.replace(baseline_suite("Allgather", dgx1())[0].algorithm)
        del full_checks[:]
        for expected in (3, 2):  # the second pass re-checks the two imported copies only
            programs = [lower(algorithm, protocol) for protocol in PROTOCOLS]
            assert all(generate_cuda_like_source(program) for program in programs)
            execute(programs[0], algorithm, check=True)
            from_xml = from_msccl_xml(to_msccl_xml(algorithm))
            blob = plan_from_algorithm(algorithm).dumps()
            from_plan = AlgorithmPlan.from_json(json.loads(blob), verify=True).algorithm
            assert full_checks == [algorithm.name, from_xml.name, from_plan.name][-expected:]
            del full_checks[:]
