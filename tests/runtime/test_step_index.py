"""The per-step view of a lowered ``Program`` and the simulator's costs.

The two digests below were recorded on the commit *before* programs had a
per-step view (every step query rescanned every instruction); the simulator
and the executor must reproduce them to the last bit.  ``TestLoweredProgram``
holds every lowered program of that suite to what lowering guarantees by
construction: matched sends and receives, operands in range, the view's
order, and a value that cannot be assigned to.
"""

import dataclasses
import gc
import hashlib
import weakref
from array import array
from collections import Counter
from itertools import chain

import pytest

from repro.baselines import baseline_suite
from repro.cli.topologies import parse_topology
from repro.core import allreduce_from_allgather, make_instance, synthesize
from repro.faults import FaultSet, LinkDegraded, scan_program, simulate_with_faults
from repro.runtime import (
    PROTOCOLS,
    OpCode,
    ProtocolModel,
    Simulator,
    execute,
    lower,
)
from repro.topology import ring

TOPOLOGIES = ("dgx1", "amd_z52", "ring:8")
COLLECTIVES = ("Allgather", "Allreduce", "Broadcast", "Reducescatter", "Reduce")
SIZES = [1 << exponent for exponent in range(10, 31, 2)]

SIMULATION_DIGEST = "facaf10b73d9b2501d69ed60ca8ea6bd45e6cf28fac73a76247ef5c59a6a8ad5"
EXECUTION_DIGEST = "6aab6049d1e06b9f907b46b5d3435f7ce45bfe254141d6ec415fc5ef200947be"


def _suite():
    for spec in TOPOLOGIES:
        topology = parse_topology(spec)
        for collective in COLLECTIVES:
            for baseline in baseline_suite(collective, topology):
                yield baseline.algorithm


def _absorb(digest, result) -> None:
    """Every float of a SimulationResult, as hex, in order."""
    digest.update(f"{result.program_name}|{result.protocol}|{result.size_bytes}|".encode())
    digest.update(float(result.total_time_s).hex().encode())
    for timing in result.step_timings:
        digest.update(
            f"|{timing.step}:{timing.transfers}:"
            f"{float(timing.bytes_on_busiest_link).hex()}:"
            f"{float(timing.duration_s).hex()}".encode()
        )
        for link, seconds in timing.link_times.items():
            digest.update(f"|{link}={float(seconds).hex()}".encode())


def simulation_digest() -> str:
    digest = hashlib.sha256()
    results = 0
    for algorithm in _suite():
        simulator = Simulator(algorithm.topology)
        for protocol in PROTOCOLS:
            program = lower(algorithm, protocol)
            for size in SIZES:
                _absorb(digest, simulator.simulate(program, size))
                results += 1
    assert results == 462

    # One degraded fabric (link_beta_scale and link_latency both set) ...
    dgx1 = parse_topology("dgx1")
    allgather = baseline_suite("Allgather", dgx1)[0].algorithm
    faults = FaultSet.of(LinkDegraded(0, 1, alpha_factor=2.5, beta_factor=3.7))
    for protocol in PROTOCOLS:
        program = lower(allgather, protocol)
        for size in SIZES:
            _absorb(digest, simulate_with_faults(program, dgx1, faults, size))

    # ... and one cost model that is not among the defaults.
    odd = ProtocolModel(
        name="single_kernel_push",
        kernel_launch_s=3.3e-6,
        per_step_sync_s=0.7e-6,
        per_transfer_fixed_s=0.13e-6,
        bandwidth_multiplier=1.37,
    )
    simulator = Simulator(dgx1)
    simulator.protocols["single_kernel_push"] = odd
    program = lower(allgather)
    for size in SIZES:
        _absorb(digest, simulator.simulate(program, size))
    return digest.hexdigest()


def execution_digest() -> str:
    digest = hashlib.sha256()
    algorithms = list(_suite())
    algorithms += [
        allreduce_from_allgather(baseline_suite("Allgather", parse_topology(spec))[0].algorithm)
        for spec in ("dgx1", "ring:8")
    ]
    assert len(algorithms) == 16
    for algorithm in algorithms:
        for protocol in PROTOCOLS:
            result = execute(lower(algorithm, protocol), algorithm, check=True)
            digest.update(
                f"{algorithm.name}|{protocol}|{result.transfers}|"
                f"{result.reduced_transfers}|{result.steps_executed}|".encode()
            )
            # The rows' doubles, row after row: the bytes of a (ranks, chunks)
            # float64 array.
            digest.update(array("d", chain.from_iterable(result.buffers)).tobytes())
    return digest.hexdigest()


class TestGolden:
    def test_simulation_is_bit_exact(self):
        assert simulation_digest() == SIMULATION_DIGEST

    def test_execution_is_unchanged(self):
        assert execution_digest() == EXECUTION_DIGEST


@pytest.fixture
def allgather():
    return baseline_suite("Allgather", ring(4))[0].algorithm


#: The fabrics of the pinned suite, and ring:4 for a synthesized Allgather.
FABRICS = TOPOLOGIES + ("ring:4",)


@pytest.fixture(scope="module", params=FABRICS)
def lowered(request):
    """Every program lowered from one fabric's algorithms, under every protocol."""
    if request.param == "ring:4":
        synthesized = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
        assert synthesized.is_sat
        algorithms = [synthesized.algorithm]
    else:
        topology = parse_topology(request.param)
        algorithms = [
            baseline.algorithm
            for collective in COLLECTIVES
            for baseline in baseline_suite(collective, topology)
        ]
    return [(algorithm, lower(algorithm, protocol))
            for algorithm in algorithms for protocol in PROTOCOLS]


class TestLoweredProgram:
    """What a lowered program is by construction, on every program lowered."""

    def test_every_send_has_one_receive_at_its_step(self, lowered):
        for _, program in lowered:
            sent, received = Counter(), Counter()
            for rank, instructions in enumerate(program.ranks):
                for op, chunk, peer, step in instructions:
                    if op is OpCode.SEND:
                        sent[chunk, rank, peer, step] += 1
                    elif op is not OpCode.BARRIER:
                        received[chunk, peer, rank, step] += 1
            assert sent and sent == received, program.name

    def test_every_operand_is_in_range(self, lowered):
        for algorithm, program in lowered:
            assert program.num_ranks == algorithm.topology.num_nodes
            assert program.num_steps == algorithm.num_steps
            for instructions in program.ranks:
                for op, chunk, peer, step in instructions:
                    assert step >= 0, program.name
                    if op is not OpCode.BARRIER:
                        assert 0 <= chunk < program.num_chunks, program.name
                        assert 0 <= peer < program.num_ranks, program.name

    def test_the_step_view_keeps_rank_then_program_order(self, lowered):
        for _, program in lowered:
            for step, (sends, reduce_keys) in enumerate(program.steps):
                ordered = [
                    (rank, instr)
                    for rank, instructions in enumerate(program.ranks)
                    for instr in instructions if instr.step == step
                ]
                assert sends == tuple(
                    (rank, instr) for rank, instr in ordered if instr.op is OpCode.SEND
                ), program.name
                assert reduce_keys == {
                    (rank, instr.chunk) for rank, instr in ordered
                    if instr.op is OpCode.RECV_REDUCE
                }, program.name

    def test_assigning_to_a_lowered_program_raises(self, lowered):
        for _, program in lowered:
            for name in [f.name for f in dataclasses.fields(program)] + ["steps"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(program, name, getattr(program, name))
            assert isinstance(program.ranks, tuple)
            assert all(isinstance(instructions, tuple) for instructions in program.ranks)


class _CountedRanks(tuple):
    """A program's rank tuples that count the walks over them."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


class TestOnePass:
    def test_a_replaced_copy_derives_its_own_view(self, allgather):
        program = lower(allgather)
        assert program.num_steps == allgather.num_steps
        copy = dataclasses.replace(program, ranks=((),) + program.ranks[1:])
        assert "steps" not in vars(copy)
        assert sum(len(sends) for sends, _ in copy.steps) < sum(
            len(sends) for sends, _ in program.steps
        )
        assert all(rank != 0 for sends, _ in copy.steps for rank, _ in sends)

    def test_queries_share_one_walk(self, allgather, monkeypatch):
        program = lower(allgather)
        assert "steps" not in vars(program)  # lowering derives nothing
        monkeypatch.setattr(_CountedRanks, "walks", 0)
        program = dataclasses.replace(program, ranks=_CountedRanks(program.ranks))
        for simulator in (Simulator(allgather.topology), Simulator(allgather.topology)):
            for size in SIZES:
                simulator.simulate(program, size)
        execute(program, allgather, check=True)
        scan_program(program, {(0, 1)})
        assert program.num_steps == allgather.num_steps
        assert _CountedRanks.walks == 1


class TestNoLeak:
    def test_simulated_program_dies_while_the_simulator_lives(self, allgather):
        simulator = Simulator(allgather.topology)
        program = lower(allgather)
        simulator.simulate(program, 1 << 20)
        execute(program, allgather, check=True)
        ref = weakref.ref(program)
        del program
        gc.collect()
        assert ref() is None
        assert simulator.simulate(lower(allgather), 1 << 20).total_time_s > 0
