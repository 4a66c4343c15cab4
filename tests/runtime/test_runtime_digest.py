"""Identity pins for everything read off a lowered program.

The four digests below were recorded on the commit *before* instructions
became tuples and the executor, code generator and simulator were rewritten
for speed: the CUDA-like source, the MSCCL XML text, the schedule that XML
reads back as, and the fault scan of every program must come out the same,
byte for byte.  ``PYTHONPATH=src python tests/runtime/test_runtime_digest.py``
prints the digests of the code at hand.
"""

import gc
import hashlib
import weakref

import pytest

from repro.baselines import baseline_suite
from repro.cli.topologies import parse_topology
from repro.core import allreduce_from_allgather
from repro.faults import FaultSet, LinkDegraded, LinkDown, scan_program
from repro.interchange import from_msccl_xml, to_msccl_xml
from repro.runtime import (
    PROTOCOLS,
    Instruction,
    OpCode,
    Simulator,
    generate_cuda_like_source,
    lower,
)
from repro.topology import ring

TOPOLOGIES = ("dgx1", "amd_z52", "ring:8")
COLLECTIVES = ("Allgather", "Allreduce", "Broadcast", "Reducescatter", "Reduce")

DIGESTS = {
    "codegen": "69ca7683163f74239c35eae5e2b705e9f0a62f419ed2f01dc02f6c97c4d17bd6",
    "xml": "47d9b6965bcf23e65b47def8382844cb3e41e3a8e4f80b50d691280268aca6e5",
    "xml_schedule": "a90d19edac6f7dcc4f77488d301955fba53c784d9c36a9ea472b7c7cfd6a6372",
    "fault_scan": "8a76a976e9abe6fc084d677481f29357e0e6fa97ce96539749f39a0cd1960079",
}


def _algorithms():
    """The step-index suite: every baseline on three fabrics, two compositions."""
    algorithms = [
        baseline.algorithm
        for spec in TOPOLOGIES
        for collective in COLLECTIVES
        for baseline in baseline_suite(collective, parse_topology(spec))
    ]
    algorithms += [
        allreduce_from_allgather(baseline_suite("Allgather", parse_topology(spec))[0].algorithm)
        for spec in ("dgx1", "ring:8")
    ]
    assert len(algorithms) == 16
    return algorithms


def _codegen(digest, algorithm) -> None:
    for protocol in PROTOCOLS:
        digest.update(generate_cuda_like_source(lower(algorithm, protocol)).encode())


def _xml(digest, algorithm) -> None:
    for protocol in PROTOCOLS:
        digest.update(to_msccl_xml(algorithm, protocol=protocol).encode())


def _xml_schedule(digest, algorithm) -> None:
    imported = from_msccl_xml(to_msccl_xml(algorithm))
    digest.update(f"{imported.name}|{imported.collective}|{imported.num_chunks}|".encode())
    for step in imported.steps:
        sends = [(s.chunk, s.src, s.dst, s.op) for s in step.sends]
        digest.update(f"{step.rounds}:{sends}|".encode())


def _fault_scan(digest, algorithm) -> None:
    # The link of the first send: every program crosses it at least once.
    first = algorithm.steps[0].sends[0]
    faults = FaultSet.of(LinkDown(first.src, first.dst))
    for protocol in PROTOCOLS:
        violations = scan_program(lower(algorithm, protocol), faults, algorithm.topology)
        assert violations
        for violation in violations:
            digest.update(f"{violation}|{violation.describe()}|".encode())


PARTS = {
    "codegen": _codegen,
    "xml": _xml,
    "xml_schedule": _xml_schedule,
    "fault_scan": _fault_scan,
}


def digests():
    algorithms = _algorithms()
    found = {}
    for name, absorb in PARTS.items():
        digest = hashlib.sha256()
        for algorithm in algorithms:
            absorb(digest, algorithm)
        found[name] = digest.hexdigest()
    return found


@pytest.mark.parametrize("part", sorted(PARTS))
def test_output_is_unchanged(part):
    digest = hashlib.sha256()
    for algorithm in _algorithms():
        PARTS[part](digest, algorithm)
    assert digest.hexdigest() == DIGESTS[part]


class TestInstructionContract:
    def test_keyword_and_positional_construction_with_defaults(self):
        keyword = Instruction(op=OpCode.SEND, chunk=3, peer=1, step=2)
        positional = Instruction(OpCode.SEND, 3, 1, 2)
        assert keyword == positional
        assert (keyword.op, keyword.chunk, keyword.peer, keyword.step) == (OpCode.SEND, 3, 1, 2)
        barrier = Instruction(OpCode.BARRIER, step=4)
        assert (barrier.chunk, barrier.peer, barrier.step) == (-1, -1, 4)
        assert Instruction(op=OpCode.RECV) == Instruction(OpCode.RECV, -1, -1, -1)

    def test_str_and_repr(self):
        assert str(Instruction(OpCode.SEND, 3, 1, 2)) == "send(chunk=3, peer=1, step=2)"
        assert str(Instruction(OpCode.RECV_REDUCE, 0, 5, 1)) == (
            "recv_reduce(chunk=0, peer=5, step=1)"
        )
        assert str(Instruction(OpCode.BARRIER, step=7)) == "barrier(step=7)"
        assert repr(Instruction(OpCode.RECV, 2, 0, 1)) == (
            "Instruction(op=<OpCode.RECV: 'recv'>, chunk=2, peer=0, step=1)"
        )

    def test_equality_and_hash(self):
        a = Instruction(OpCode.SEND, 0, 1, 0)
        b = Instruction(op=OpCode.SEND, chunk=0, peer=1, step=0)
        assert a == b and hash(a) == hash(b)
        assert a != Instruction(OpCode.RECV, 0, 1, 0)
        assert a != Instruction(OpCode.SEND, 0, 1, 1)
        assert len({a, b, Instruction(OpCode.SEND, 1, 1, 0)}) == 2

    def test_immutable(self):
        instruction = Instruction(OpCode.SEND, 0, 1, 0)
        for name in ("op", "chunk", "peer", "step"):
            with pytest.raises(AttributeError):
                setattr(instruction, name, 9)
        assert instruction == Instruction(OpCode.SEND, 0, 1, 0)

    def test_op_is_the_enum_member(self):
        program = lower(baseline_suite("Allgather", ring(4))[0].algorithm, "multi_kernel_push")
        ops = {instr.op for rank in program.ranks for instr in rank}
        assert ops == {OpCode.SEND, OpCode.RECV, OpCode.BARRIER}
        for rank in program.ranks:
            for instr in rank:
                assert any(instr.op is member for member in OpCode)


@pytest.fixture
def allgather():
    return baseline_suite("Allgather", ring(4))[0].algorithm


class TestPricingMemo:
    def test_a_second_simulator_prices_with_its_own_links(self, allgather):
        topology = allgather.topology
        program = lower(allgather)
        healthy = Simulator(topology)
        degraded = Simulator(
            FaultSet.of(LinkDegraded(0, 1, alpha_factor=3.0, beta_factor=5.0)).apply(topology)
        )
        first = healthy.simulate(program, 1 << 20)
        slow = degraded.simulate(program, 1 << 20)
        assert healthy.simulate(program, 1 << 20) == first
        assert slow.total_time_s > first.total_time_s
        assert degraded.simulate(lower(allgather), 1 << 20) == slow
        assert Simulator(topology).simulate(lower(allgather), 1 << 20) == first

    def test_the_program_dies_with_its_rows(self, allgather):
        simulator = Simulator(allgather.topology)
        program = lower(allgather)
        simulator.simulate(program, 1 << 20)
        ref = weakref.ref(program)
        del program
        gc.collect()
        assert ref() is None


if __name__ == "__main__":
    for name, value in digests().items():
        print(f"    {name!r}: {value!r},")
