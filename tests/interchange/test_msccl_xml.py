"""MSCCL-style XML round-trip and trust-boundary tests.

The acceptance criterion for the interchange layer: emit -> import ->
re-verify yields an algorithm equal to the original (same signature, same
rounds, same send sets), and tampered documents are rejected rather than
silently repaired.
"""

import dataclasses
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import baseline_suite
from repro.cli.topologies import parse_topology
from repro.core import (
    Algorithm,
    Send,
    Step,
    allreduce_from_allgather,
    invert_algorithm,
    make_instance,
    synthesize,
)
from repro.interchange import (
    InterchangeError,
    from_msccl_xml,
    read_msccl_xml,
    read_plan,
    to_msccl_xml,
    write_msccl_xml,
)
from repro.runtime import PROTOCOLS
from repro.topology import BandwidthConstraint, Topology, dgx1, line, ring

DATA = Path(__file__).parent / "data"


def synthesize_allgather(chunks=1, steps=2, rounds=3, nodes=4):
    result = synthesize(make_instance("Allgather", ring(nodes), chunks, steps, rounds))
    assert result.is_sat
    return result.algorithm


def assert_schedules_equal(imported, original):
    assert imported.collective == original.collective
    assert imported.signature() == original.signature()
    assert imported.combining == original.combining
    assert imported.precondition == original.precondition
    assert imported.postcondition == original.postcondition
    assert [s.rounds for s in imported.steps] == [s.rounds for s in original.steps]
    assert [frozenset(s.sends) for s in imported.steps] == [
        frozenset(s.sends) for s in original.steps
    ]


class TestRoundTrip:
    def test_allgather_ring(self):
        original = synthesize_allgather()
        imported = from_msccl_xml(to_msccl_xml(original))
        assert_schedules_equal(imported, original)

    def test_imported_algorithm_reverifies(self):
        imported = from_msccl_xml(to_msccl_xml(synthesize_allgather()))
        imported.verify()

    def test_broadcast_nonzero_root(self):
        result = synthesize(
            make_instance("Broadcast", ring(4), 2, 3, 3, root=2)
        )
        assert result.is_sat
        imported = from_msccl_xml(to_msccl_xml(result.algorithm))
        assert_schedules_equal(imported, result.algorithm)

    def test_combining_allreduce(self):
        allreduce = allreduce_from_allgather(synthesize_allgather())
        imported = from_msccl_xml(to_msccl_xml(allreduce))
        assert_schedules_equal(imported, allreduce)
        assert imported.combining
        # recv-reduce steps survive the round trip as "rrc"
        assert 'type="rrc"' in to_msccl_xml(allreduce)

    def test_combining_reduce(self):
        result = synthesize(make_instance("Broadcast", line(3), 1, 2, 2, root=1))
        assert result.is_sat
        reduce = invert_algorithm(result.algorithm)
        imported = from_msccl_xml(to_msccl_xml(reduce))
        assert_schedules_equal(imported, reduce)

    def test_reemission_is_stable(self):
        original = synthesize_allgather()
        xml = to_msccl_xml(original)
        assert to_msccl_xml(from_msccl_xml(xml)) == xml

    def test_file_io(self, tmp_path):
        original = synthesize_allgather()
        path = write_msccl_xml(original, tmp_path / "algo.xml")
        assert_schedules_equal(read_msccl_xml(path), original)

    def test_explicit_topology_overrides_embedded(self):
        original = synthesize_allgather()
        imported = from_msccl_xml(to_msccl_xml(original), topology=ring(4))
        assert_schedules_equal(imported, original)

    def test_dgx1_allgather(self):
        result = synthesize(make_instance("Allgather", dgx1(), 1, 2, 2))
        assert result.is_sat
        imported = from_msccl_xml(to_msccl_xml(result.algorithm))
        assert_schedules_equal(imported, result.algorithm)


def elementtree_layout(text: str) -> str:
    """The document as ElementTree writes the tree it parses from ``text``.

    ElementTree is the reference for the hand-written writer: attribute
    order, escaping, indentation and the self-closing forms must all be the
    ones ``indent`` + ``tostring`` produce.
    """
    root = ET.fromstring(text)
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="unicode") + "\n"


def pipeline_algorithms():
    """The benchmark's 14 baselines, two synthesized DGX-1 points, their Allreduces."""
    algorithms = []
    for topology_spec in ("ring:8", "dgx1", "amd_z52"):
        topology = parse_topology(topology_spec)
        for collective in ("Allgather", "Allreduce", "Broadcast", "Reducescatter", "Reduce"):
            for baseline in baseline_suite(collective, topology):
                algorithms.append(baseline.algorithm)
    assert len(algorithms) == 14
    for (chunks, steps, rounds) in ((1, 2, 2), (2, 2, 3)):
        result = synthesize(make_instance("Allgather", dgx1(), chunks, steps, rounds))
        assert result.is_sat
        algorithms.append(result.algorithm)
        algorithms.append(allreduce_from_allgather(result.algorithm))
    return algorithms


class TestWriterAgainstElementTree:
    def test_pipeline_algorithms_under_every_protocol(self):
        for algorithm in pipeline_algorithms():
            for protocol in PROTOCOLS:
                text = to_msccl_xml(algorithm, protocol=protocol)
                assert text == elementtree_layout(text), (algorithm.name, protocol)

    def test_output_of_the_elementtree_writer_is_reproduced(self):
        # Both files were written at the last commit that emitted through
        # ElementTree, from the same cached quickstart algorithm.
        algorithm = read_plan(DATA / "legacy_indented_plan.json").algorithm
        golden = (DATA / "quickstart_allgather.xml").read_text(encoding="utf-8")
        assert to_msccl_xml(algorithm) == golden

    # Everything ElementTree escapes in an attribute, a quote it does not,
    # and text outside ASCII and outside the BMP.
    names = st.text(alphabet="&<>\"'\n\t\r ;#aZ09-_\u00e9\u00df\u6f22\U0001f600", max_size=12)

    @given(name=names, topology_name=names, constraint_name=names)
    @settings(max_examples=60, deadline=None)
    def test_free_text_attributes(self, name, topology_name, constraint_name):
        base = baseline_suite("Allgather", ring(4))[0].algorithm
        topology = dataclasses.replace(
            base.topology,
            name=topology_name,
            constraints=[
                dataclasses.replace(constraint, name=f"{constraint_name}{index}")
                for index, constraint in enumerate(base.topology.constraints)
            ],
        )
        algorithm = dataclasses.replace(base, name=name, topology=topology)
        text = to_msccl_xml(algorithm)
        assert text == elementtree_layout(text)
        imported = from_msccl_xml(text)
        assert imported.name == name
        assert imported.topology.name == topology_name
        assert [c.name for c in imported.topology.constraints] == [
            c.name for c in topology.constraints
        ]

    def test_rank_without_transfers_and_constraint_without_links(self):
        topology = line(3)
        topology.constraints.append(BandwidthConstraint(frozenset(), 1, "spare"))
        algorithm = Algorithm(
            name="to_the_neighbour", collective="Broadcast", topology=topology,
            chunks_per_node=1, num_chunks=1,
            precondition=frozenset({(0, 0)}), postcondition=frozenset({(0, 0), (0, 1)}),
            steps=[Step(rounds=1, sends=(Send(chunk=0, src=0, dst=1),))],
        )
        text = to_msccl_xml(algorithm)
        assert '  <gpu id="2" />\n' in text
        assert '    <constraint bandwidth="1" name="spare" />\n' in text
        assert text == elementtree_layout(text)

    def test_no_links_and_no_steps(self):
        algorithm = Algorithm(
            name="alone", collective="Broadcast", topology=Topology("solo", 1),
            chunks_per_node=1, num_chunks=1,
            precondition=frozenset({(0, 0)}), postcondition=frozenset({(0, 0)}),
        )
        text = to_msccl_xml(algorithm)
        assert '  <topology name="solo" nodes="1" alpha="5e-06" beta="4e-11" />\n' in text
        assert "  <schedule />\n" in text
        assert text == elementtree_layout(text)


def mutate(xml: str, fn) -> str:
    root = ET.fromstring(xml)
    fn(root)
    return ET.tostring(root, encoding="unicode")


class TestTrustBoundary:
    def test_malformed_xml_rejected(self):
        with pytest.raises(InterchangeError, match="malformed"):
            from_msccl_xml("<algo><gpu></algo>")

    def test_unknown_collective_rejected(self):
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match="unknown collective"):
            from_msccl_xml(mutate(xml, lambda a: a.set("coll", "bitonic_sort")))

    def test_orphaned_send_rejected(self):
        # Drop one recv step: its matching send has no receiver.
        def drop_one_recv(algo):
            for gpu in algo.findall("gpu"):
                for tb in gpu.findall("tb"):
                    for step in tb.findall("step"):
                        if step.get("type") == "r":
                            tb.remove(step)
                            return
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match="matching"):
            from_msccl_xml(mutate(xml, drop_one_recv))

    def test_injected_send_on_missing_link_rejected(self):
        # Rewire a threadblock to a non-neighbour: ring 0->2 does not exist.
        def rewire(algo):
            gpu0 = next(g for g in algo.findall("gpu") if g.get("id") == "0")
            for tb in gpu0.findall("tb"):
                if tb.get("send") == "1":
                    tb.set("send", "2")
                    # keep the matching recv consistent so the schedule-level
                    # cross-check passes and verification must catch it
                    gpu2 = next(g for g in algo.findall("gpu") if g.get("id") == "2")
                    gpu1 = next(g for g in algo.findall("gpu") if g.get("id") == "1")
                    for peer_tb in gpu1.findall("tb"):
                        if peer_tb.get("recv") == "0":
                            gpu1.remove(peer_tb)
                            gpu2.append(peer_tb)
                    return
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError):
            from_msccl_xml(mutate(xml, rewire))

    def test_wrong_chunk_counts_rejected(self):
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match="G="):
            from_msccl_xml(mutate(xml, lambda a: a.set("nchunksperloop", "8")))

    def test_schedule_round_tampering_rejected(self):
        # Editing a phase without updating nrounds breaks self-consistency.
        def shrink_rounds(algo):
            phases = algo.find("schedule").findall("phase")
            phases[-1].set("rounds", "1")
        xml = to_msccl_xml(synthesize_allgather())  # declares nrounds=3
        with pytest.raises(InterchangeError, match="nrounds"):
            from_msccl_xml(mutate(xml, shrink_rounds))

    def test_overloaded_link_rejected(self):
        # Doubling a send on a unit-bandwidth link must fail the C5 check.
        def overload(algo):
            algo.set("nrounds", "2")
            for phase in algo.find("schedule").findall("phase"):
                phase.set("rounds", "1")
        result = synthesize(make_instance("Allgather", ring(4), 2, 2, 4))
        assert result.is_sat
        xml = to_msccl_xml(result.algorithm)
        with pytest.raises(InterchangeError):
            from_msccl_xml(mutate(xml, overload))

    def test_topology_node_count_mismatch_rejected(self):
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match="nodes"):
            from_msccl_xml(xml, topology=ring(6))

    def test_multi_chunk_step_rejected(self):
        # cnt="3" describes a three-chunk transfer; it must not be imported
        # as the one-chunk transfer at srcoff.
        xml = to_msccl_xml(synthesize_allgather())
        assert xml.count('cnt="1"') > 1
        with pytest.raises(InterchangeError, match=r"gpu \d+: step \d+ has cnt='3'"):
            from_msccl_xml(xml.replace('cnt="1"', 'cnt="3"', 1))
        from_msccl_xml(xml.replace('cnt="1"', 'cnt=" 1 "'))  # the same integer

    def test_transfer_between_offsets_rejected(self):
        def shift_destination(algo):
            step = algo.find("gpu").find("tb").find("step")
            step.set("dstoff", str(int(step.get("srcoff")) + 1))
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match=r"gpu 0: step \d+ has dstoff="):
            from_msccl_xml(mutate(xml, shift_destination))

    @pytest.mark.parametrize("attr", ["nsteps", "ngpus", "nchunksperloop"])
    def test_negative_counts_rejected(self, attr):
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match=f"{attr}=-1"):
            from_msccl_xml(mutate(xml, lambda a: a.set(attr, "-1")))

    def test_nsteps_beyond_the_schedule_rejected(self):
        xml = to_msccl_xml(synthesize_allgather())
        with pytest.raises(InterchangeError, match="nsteps=100000000 but describes only 2"):
            from_msccl_xml(mutate(xml, lambda a: a.set("nsteps", "100000000")))

    def test_nsteps_beyond_the_steps_rejected_without_schedule(self):
        def drop_schedule(algo):
            algo.remove(algo.find("schedule"))
            algo.set("nsteps", "100000000")
        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 2))
        assert result.is_sat
        xml = to_msccl_xml(result.algorithm)
        with pytest.raises(InterchangeError, match="describes only 2"):
            from_msccl_xml(mutate(xml, drop_schedule))
        # The MSCCL shape proper (no <schedule>) still imports: one round per step.
        plain = mutate(xml, lambda a: a.remove(a.find("schedule")))
        assert [step.rounds for step in from_msccl_xml(plain).steps] == [1, 1]
