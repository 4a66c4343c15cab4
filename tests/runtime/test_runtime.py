"""Tests for lowering, execution, simulation and code generation."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import nccl_allgather, nccl_allreduce, ring_allgather, single_ring
from repro.core import make_instance, synthesize
from repro.runtime import (
    ExecutionError,
    LoweringError,
    OpCode,
    PROTOCOLS,
    SimulationError,
    Simulator,
    execute,
    generate_cuda_like_source,
    lower,
)
from repro.topology import dgx1, ring


def _run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter on this checkout; it must pass."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def ring4_allgather():
    result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
    assert result.is_sat
    return result.algorithm


@pytest.fixture(scope="module")
def ring4_topology():
    return ring(4)


class TestLowering:
    def test_lower_produces_matched_program(self, ring4_allgather):
        program = lower(ring4_allgather)
        assert program.num_ranks == 4
        assert program.num_steps == ring4_allgather.num_steps
        # One SEND and one RECV per send of the algorithm.
        sends = sum(step.num_sends for step in ring4_allgather.steps)
        ops = [i.op for r in program.ranks for i in r]
        assert (ops.count(OpCode.SEND), ops.count(OpCode.RECV)) == (sends, sends)
        assert program.total_instructions() == len(ops) == 2 * sends

    def test_multi_kernel_inserts_barriers(self, ring4_allgather):
        program = lower(ring4_allgather, protocol="multi_kernel_push")
        barriers = [
            i for r in program.ranks for i in r if i.op is OpCode.BARRIER
        ]
        assert len(barriers) == ring4_allgather.num_steps * program.num_ranks

    def test_unknown_protocol_rejected(self, ring4_allgather):
        with pytest.raises(LoweringError):
            lower(ring4_allgather, protocol="carrier_pigeon")

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_lowers_and_executes(self, ring4_allgather, protocol):
        program = lower(ring4_allgather, protocol=protocol)
        assert program.protocol == protocol
        result = execute(program, ring4_allgather)
        assert result.transfers == sum(step.num_sends for step in ring4_allgather.steps)

    def test_reduce_sends_become_recv_reduce(self):
        topo = ring(4)
        allgather = ring_allgather(topo, single_ring(topo))
        from repro.core import invert_algorithm

        program = lower(invert_algorithm(allgather))
        reduce_recvs = [
            i for r in program.ranks for i in r if i.op is OpCode.RECV_REDUCE
        ]
        assert reduce_recvs


class TestExecution:
    def test_synthesized_allgather_executes_correctly(self, ring4_allgather):
        program = lower(ring4_allgather)
        result = execute(program, ring4_allgather)
        assert result.transfers == sum(step.num_sends for step in ring4_allgather.steps)
        assert result.steps_executed == ring4_allgather.num_steps

    def test_allgather_fills_every_buffer_slot(self):
        algorithm = ring_allgather(ring(8), single_ring(ring(8)))
        result = execute(lower(algorithm), algorithm)
        assert (len(result.buffers), len(result.buffers[0])) == (8, 16)
        assert not any(math.isnan(value) for row in result.buffers for value in row)

    def test_nccl_allgather_executes_correctly(self):
        algorithm = nccl_allgather()
        result = execute(lower(algorithm), algorithm)
        # 8 ranks x 6 rings x 7 steps sends.
        assert result.transfers == 336

    def test_nccl_allreduce_reduces_and_broadcasts(self):
        algorithm = nccl_allreduce()
        result = execute(lower(algorithm), algorithm)
        assert result.reduced_transfers == 336
        assert result.transfers == 672

    def test_the_whole_pipeline_runs_without_numpy(self):
        # With numpy blocked, any numpy import raises: lowering, codegen,
        # execution, simulation, interchange, fault injection and `repro run`
        # all run on the standard library.
        _run_fresh(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import tempfile\n"
            "from pathlib import Path\n"
            "from repro.baselines import baseline_suite\n"
            "from repro.cli import main\n"
            "from repro.cli.topologies import parse_topology\n"
            "from repro.faults import (FaultSet, LinkDegraded, LinkDown, execute_with_faults,\n"
            "                          scan_program)\n"
            "from repro.interchange import (from_msccl_xml, plan_from_algorithm, read_plan,\n"
            "                               to_msccl_xml, write_plan)\n"
            "from repro.runtime import (PROTOCOLS, Simulator, execute,\n"
            "                           generate_cuda_like_source, lower)\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    for spec, collective in (('ring:8', 'Allgather'), ('dgx1', 'Allreduce')):\n"
            "        topology = parse_topology(spec)\n"
            "        algorithm = baseline_suite(collective, topology)[0].algorithm\n"
            "        programs = [lower(algorithm, protocol) for protocol in PROTOCOLS]\n"
            "        assert len(programs) == 3\n"
            "        program = programs[0]\n"
            "        assert generate_cuda_like_source(program)\n"
            "        result = execute(program, algorithm, check=True)\n"
            "        assert len(result.buffers) == program.num_ranks\n"
            "        for row in result.buffers:\n"
            "            assert len(row) == program.num_chunks\n"
            "            assert all(type(value) is float for value in row)\n"
            "        assert Simulator(topology).simulate(program, 1 << 20).total_time_s > 0\n"
            "        xml = from_msccl_xml(to_msccl_xml(algorithm))\n"
            "        assert xml.signature() == algorithm.signature()\n"
            "        path = write_plan(plan_from_algorithm(algorithm), Path(tmp, spec + '.json'))\n"
            "        assert read_plan(path).algorithm.signature() == algorithm.signature()\n"
            "        assert scan_program(program, FaultSet.of(LinkDown(0, 1)), topology)\n"
            "        degraded = FaultSet.of(LinkDegraded(0, 1, alpha_factor=2.0, beta_factor=2.0))\n"
            "        assert execute_with_faults(program, algorithm, degraded, topology).transfers\n"
            "        assert main(['run', str(path)]) == 0\n"
            "    assert algorithm.combining\n"
        )

    def test_a_plan_client_loads_no_synthesis_stack(self):
        # A client builds a PlanRequest, posts JSON and decodes a PlanResponse.
        _run_fresh(
            "import repro.service, sys\n"
            "heavy = ('repro.core', 'repro.engine', 'repro.solver', 'repro.interchange',\n"
            "         'repro.runtime', 'repro.faults', 'repro.baselines',\n"
            "         'numpy', 'multiprocessing')\n"
            "prefixes = tuple(name + '.' for name in heavy)\n"
            "loaded = [m for m in sys.modules if m in heavy or m.startswith(prefixes)]\n"
            "assert not loaded, loaded\n"
        )

    def test_every_service_name_still_imports(self):
        _run_fresh(
            "import repro.service, sys\n"
            "listed = dir(repro.service)\n"
            "for name in repro.service.__all__:\n"
            "    assert name in listed, name\n"
            "    exec(f'from repro.service import {name}')\n"
            "assert 'repro.service.workers' in sys.modules\n"
            "try:\n"
            "    repro.service.NoSuchName\n"
            "except AttributeError as exc:\n"
            "    assert 'NoSuchName' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('unknown name resolved')\n"
        )

    def test_the_process_pool_loads_with_the_pool(self):
        _run_fresh(
            "import repro.engine, sys\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "from concurrent.futures import process\n"
            "started = []\n"
            "init = process.ProcessPoolExecutor.__init__\n"
            "def counting(pool, *args, **kwargs):\n"
            "    started.append(pool)\n"
            "    init(pool, *args, **kwargs)\n"
            "process.ProcessPoolExecutor.__init__ = counting\n"
            "from repro.engine import SweepRequest, make_dispatcher\n"
            "from repro.topology import ring\n"
            "request = SweepRequest('Allgather', ring(6), 3, ((3, 1), (4, 1)),\n"
            "                       stop_at_first_sat=False)\n"
            "serial = make_dispatcher('serial').sweep(request)\n"
            "assert not started\n"
            "parallel = make_dispatcher('parallel', max_workers=2).sweep(request)\n"
            "assert len(started) == 1\n"
            "statuses = [[r.status for r in o.results] for o in (serial, parallel)]\n"
            "assert statuses[0] == statuses[1] and len(statuses[0]) == 2, statuses\n"
        )

    def test_corrupted_program_detected(self, ring4_allgather):
        program = lower(ring4_allgather)
        # Drop every instruction of rank 0: its sends never happen, so some
        # postcondition chunk is missing at the end.
        program = dataclasses.replace(program, ranks=((),) + program.ranks[1:])
        with pytest.raises(ExecutionError):
            execute(program, ring4_allgather)


class TestSimulator:
    def test_larger_inputs_take_longer(self, ring4_allgather, ring4_topology):
        simulator = Simulator(ring4_topology)
        small = simulator.simulate_algorithm(ring4_allgather, 1 << 10)
        large = simulator.simulate_algorithm(ring4_allgather, 1 << 24)
        assert large.total_time_s > small.total_time_s

    def test_step_count_matches(self, ring4_allgather, ring4_topology):
        result = Simulator(ring4_topology).simulate_algorithm(ring4_allgather, 1 << 16)
        assert len(result.step_timings) == ring4_allgather.num_steps
        assert result.algorithmic_bandwidth() > 0

    def test_latency_vs_bandwidth_crossover_on_dgx1(self):
        # The 2-step latency-optimal Allgather beats NCCL's 7-step ring at
        # small sizes; the ring wins (or ties) at very large sizes.
        topo = dgx1()
        latency_optimal = synthesize(make_instance("Allgather", topo, 1, 2, 2)).algorithm
        baseline = nccl_allgather(topo)
        simulator = Simulator(topo)
        small_lat = simulator.simulate_algorithm(latency_optimal, 1 << 10).total_time_s
        small_ring = simulator.simulate_algorithm(baseline, 1 << 10).total_time_s
        big_lat = simulator.simulate_algorithm(latency_optimal, 1 << 28).total_time_s
        big_ring = simulator.simulate_algorithm(baseline, 1 << 28).total_time_s
        assert small_lat < small_ring
        assert big_ring < big_lat

    def test_memcpy_protocol_helps_only_large_buffers(self):
        topo = dgx1()
        algorithm = nccl_allgather(topo)
        simulator = Simulator(topo)
        push_small = simulator.simulate(lower(algorithm, "single_kernel_push"), 1 << 10)
        memcpy_small = simulator.simulate(lower(algorithm, "multi_kernel_memcpy"), 1 << 10)
        push_big = simulator.simulate(lower(algorithm, "single_kernel_push"), 1 << 28)
        memcpy_big = simulator.simulate(lower(algorithm, "multi_kernel_memcpy"), 1 << 28)
        assert memcpy_small.total_time_s > push_small.total_time_s
        assert memcpy_big.total_time_s < push_big.total_time_s

    @pytest.mark.parametrize("size", [-(1 << 20), math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_a_size_outside_zero_to_infinity_is_refused(self, ring4_allgather, ring4_topology,
                                                        size):
        program = lower(ring4_allgather)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            Simulator(ring4_topology).simulate(program, size)

    def test_size_zero_prices_latency_only(self, ring4_allgather, ring4_topology):
        result = Simulator(ring4_topology).simulate(lower(ring4_allgather), 0)
        assert result.total_time_s > 0
        assert all(timing.bytes_on_busiest_link == 0 for timing in result.step_timings)

    def test_unknown_protocol_rejected(self, ring4_allgather, ring4_topology):
        program = dataclasses.replace(lower(ring4_allgather), protocol="quantum")
        with pytest.raises(Exception):
            Simulator(ring4_topology).simulate(program, 1024)

    def test_simulate_algorithm_lowers_with_the_default_protocol(
        self, ring4_allgather, ring4_topology
    ):
        simulator = Simulator(ring4_topology)
        direct = simulator.simulate_algorithm(ring4_allgather, 1 << 16)
        assert direct == simulator.simulate(lower(ring4_allgather), 1 << 16)
        assert direct.protocol == "single_kernel_push"


class TestCodegen:
    def test_source_structure(self, ring4_allgather):
        program = lower(ring4_allgather)
        source = generate_cuda_like_source(program)
        # One case per rank under a rank switch.
        assert "switch (rank)" in source
        for rank in range(4):
            assert f"case {rank}:" in source
        # Push copies with threadfence-before-flag signalling.
        assert "push_chunk" in source
        assert "__threadfence" in source
        assert "wait(" in source

    def test_memcpy_protocol_emits_cudamemcpy(self, ring4_allgather):
        program = lower(ring4_allgather, protocol="multi_kernel_memcpy")
        source = generate_cuda_like_source(program)
        assert "cudaMemcpyAsync" in source
        assert "for (int step = 0" in source

    def test_reduce_emits_accumulation(self):
        topo = ring(4)
        from repro.core import invert_algorithm

        allgather = ring_allgather(topo, single_ring(topo))
        program = lower(invert_algorithm(allgather))
        source = generate_cuda_like_source(program)
        assert "push_chunk_reduce" in source
