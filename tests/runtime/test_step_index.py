"""The step index on ``Program`` and the size-independent simulator costs.

The two digests below were recorded on the commit *before* the index
existed (every step query rescanned every instruction); the simulator and
the executor must reproduce them to the last bit.
"""

import gc
import hashlib
import weakref
from array import array
from itertools import chain

import pytest

from repro.baselines import baseline_suite
from repro.cli.topologies import parse_topology
from repro.core import allreduce_from_allgather
from repro.faults import FaultSet, LinkDegraded, scan_program, simulate_with_faults
from repro.runtime import (
    PROTOCOLS,
    Instruction,
    OpCode,
    ProtocolModel,
    Simulator,
    execute,
    lower,
)
from repro.runtime import program as program_module
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


def _extra_send(step: int) -> Instruction:
    # ring(4) has the link 0 -> 1; chunk 0 starts at rank 0.
    return Instruction(op=OpCode.SEND, chunk=0, peer=1, step=step)


class TestStaleness:
    def test_append_is_seen(self, allgather):
        program = lower(allgather)
        steps = program.num_steps
        simulator = Simulator(allgather.topology)
        before = simulator.simulate(program, 1 << 20)

        program.rank(0).append(_extra_send(steps))
        assert program.num_steps == steps + 1
        assert program.sends_at_step(steps) == [(0, _extra_send(steps))]
        after = simulator.simulate(program, 1 << 20)
        assert len(after.step_timings) == steps + 1
        assert after.step_timings[-1].transfers == 1
        assert after.total_time_s > before.total_time_s

    def test_direct_list_edit_is_seen(self, allgather):
        program = lower(allgather)
        simulator = Simulator(allgather.topology)
        last = program.num_steps - 1
        sends = len(program.sends_at_step(last))
        before = execute(program, allgather, check=True)
        timed = simulator.simulate(program, 1 << 20)

        # Same length, different content: the index may not key on sizes.
        instructions = program.rank(0).instructions
        position = next(
            i for i, instr in enumerate(instructions)
            if instr.op is OpCode.SEND and instr.step == last
        )
        removed = instructions[position]
        instructions[position] = Instruction(OpCode.BARRIER, step=last)
        assert len(program.sends_at_step(last)) == sends - 1
        assert simulator.simulate(program, 1 << 20).step_timings[last].transfers == sends - 1
        assert execute(program, allgather, check=False).transfers == before.transfers - 1

        instructions[position] = removed
        assert len(program.sends_at_step(last)) == sends
        assert simulator.simulate(program, 1 << 20) == timed
        assert execute(program, allgather, check=True).transfers == before.transfers

    def test_replaced_rank_program_is_seen(self, allgather):
        program = lower(allgather)
        assert program.num_steps > 0
        for rank_program in program.ranks:
            rank_program.instructions = []
        assert program.num_steps == 0
        assert program.sends_at_step(0) == []


class TestOnePass:
    def test_queries_share_one_walk(self, allgather, monkeypatch):
        walks = []
        built = []
        build = program_module.StepIndex.build

        class CountingList(list):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        def counting(ranks):
            built.append(len(ranks))
            return build(ranks)

        def query_everything(program):
            simulator = Simulator(allgather.topology)
            for size in SIZES:
                simulator.simulate(program, size)
            execute(program, allgather, check=True)
            for step in range(program.num_steps):
                program.sends_at_step(step)
            program.validate()
            scan_program(program, {(0, 1)})

        monkeypatch.setattr(program_module.StepIndex, "build", staticmethod(counting))
        # Lowering validates, and validating reads the index: it is built there.
        program = lower(allgather)
        assert built == [program.num_ranks]
        for rank_program in program.ranks:
            rank_program.instructions = CountingList(rank_program.instructions)
        query_everything(program)
        assert walks == [] and built == [program.num_ranks]

        # After an edit, one rebuild walks each rank's list once for all of them.
        program.rank(0).append(Instruction(OpCode.BARRIER, step=0))
        query_everything(program)
        assert len(walks) == program.num_ranks
        assert built == [program.num_ranks] * 2

    def test_sizes_of_one_program_build_one_index(self, allgather, monkeypatch):
        built = []
        build = program_module.StepIndex.build

        def counting(ranks):
            built.append(len(ranks))
            return build(ranks)

        monkeypatch.setattr(program_module.StepIndex, "build", staticmethod(counting))
        simulator, program = Simulator(allgather.topology), lower(allgather)
        results = [simulator.simulate(program, size) for size in SIZES]
        assert len(results) == len(SIZES)
        assert built == [allgather.topology.num_nodes]

    def test_sends_at_step_returns_a_fresh_list(self, allgather):
        program = lower(allgather)
        first = program.sends_at_step(0)
        expected = list(first)
        first.clear()
        assert program.sends_at_step(0) == expected
        assert program.sends_at_step(-1) == []
        assert program.sends_at_step(program.num_steps) == []

    def test_sends_keep_rank_then_program_order(self, allgather):
        program = lower(allgather)
        for step in range(program.num_steps):
            scanned = [
                (rank_program.rank, instr)
                for rank_program in program.ranks
                for instr in rank_program.instructions
                if instr.op is OpCode.SEND and instr.step == step
            ]
            assert program.sends_at_step(step) == scanned


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
