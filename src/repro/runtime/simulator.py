"""Discrete-event alpha-beta interconnect simulator (the hardware substitute).

The paper evaluates generated code on real DGX-1 and Gigabyte Z52 machines.
Without that hardware, this simulator estimates the wall-clock time of a
lowered program from the same first-order effects the paper discusses in
Sections 2.3, 4 and 5.5:

* **alpha-beta links.**  Each directed link transfers a message of ``L``
  bytes in ``link_alpha + L * beta_link`` seconds where ``beta_link`` is the
  per-byte time of that link (a double-NVLink DGX-1 edge has half the beta
  of a single-NVLink edge).
* **Synchronous steps.**  A step completes when its slowest link finishes
  all transfers assigned to it (sends on the same link serialize; sends on
  different links proceed in parallel).  This directly mirrors the cost
  model ``S * alpha + (R / C) * L * beta``.
* **Protocol overheads.**  The fused single-kernel protocol pays one kernel
  launch plus a per-step flag-synchronization cost; the multi-kernel
  protocol pays a kernel launch per step; the cudaMemcpy protocol pays a
  higher per-transfer fixed cost but enjoys ~10% higher link bandwidth
  (DMA engines emit full-size packets), and additionally cannot fuse
  reductions into the copy.

The absolute numbers are not meant to match the paper's testbed; the *shape*
of the comparisons (which algorithm wins at which buffer size) is what the
evaluation harness reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from ..core.algorithm import Algorithm
from ..topology import DEFAULT_LINK_LATENCY_S, Topology
from .program import Program


class SimulationError(Exception):
    """Raised for inconsistent simulation inputs."""


@dataclass
class ProtocolModel:
    """Tunable cost parameters of a lowering protocol."""

    name: str
    kernel_launch_s: float          # paid once (fused) or per step (multi kernel)
    per_step_sync_s: float          # flag/barrier synchronization per step
    per_transfer_fixed_s: float     # per-message fixed cost (packet header, API call)
    bandwidth_multiplier: float     # >1 means faster than the baseline kernel copy


#: Protocol models; numbers follow the qualitative statements in Section 4
#: (DMA ~10% higher bandwidth, push copies avoid request/response overhead,
#: per-step kernel launches cost microseconds).
DEFAULT_PROTOCOLS: Dict[str, ProtocolModel] = {
    "single_kernel_push": ProtocolModel(
        name="single_kernel_push",
        kernel_launch_s=5e-6,
        per_step_sync_s=1.5e-6,
        per_transfer_fixed_s=0.4e-6,
        bandwidth_multiplier=1.0,
    ),
    "multi_kernel_push": ProtocolModel(
        name="multi_kernel_push",
        kernel_launch_s=0.0,
        per_step_sync_s=6.5e-6,     # one kernel launch per step
        per_transfer_fixed_s=0.4e-6,
        bandwidth_multiplier=1.0,
    ),
    "multi_kernel_memcpy": ProtocolModel(
        name="multi_kernel_memcpy",
        kernel_launch_s=0.0,
        per_step_sync_s=8e-6,       # kernel launch + memcpy API overhead per step
        per_transfer_fixed_s=2.5e-6,
        bandwidth_multiplier=1.10,  # DMA engines: ~10% better than kernel copies
    ),
}


@dataclass
class StepTiming:
    """Timing breakdown of one synchronous step."""

    step: int
    transfers: int
    bytes_on_busiest_link: float
    duration_s: float
    link_times: Dict[Tuple[int, int], float] = field(default_factory=dict)


@dataclass(eq=False)
class SimulationResult:
    """Outcome of simulating one program at one input size.

    ``step_timings`` is built on first read from the simulator's priced rows
    (``_steps``), with the same arithmetic that gave ``total_time_s``.
    """

    program_name: str
    protocol: str
    size_bytes: float
    total_time_s: float
    # (rows of Simulator._rows, payloads by message count, per-step sync)
    _steps: Tuple[list, List[float], float] = field(default=((), [0.0], 0.0), repr=False)

    @cached_property
    def step_timings(self) -> List[StepTiming]:
        rows, payloads, sync = self._steps
        timings = []
        for step, (transfers, links, messages) in enumerate(rows):
            link_times = {
                link: base + payloads[count] * beta for link, count, base, beta in links
            }
            duration = sync + max(link_times.values(), default=0.0)
            busiest_bytes = max(map(payloads.__getitem__, messages), default=0.0)
            timings.append(StepTiming(step, transfers, busiest_bytes, duration, link_times))
        return timings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            self.program_name, self.protocol, self.size_bytes, self.total_time_s,
            self.step_timings,
        ) == (
            other.program_name, other.protocol, other.size_bytes, other.total_time_s,
            other.step_timings,
        )

    def algorithmic_bandwidth(self) -> float:
        """Bytes per second of collective payload (size / time)."""
        if self.total_time_s <= 0:
            raise SimulationError("non-positive simulated time")
        return self.size_bytes / self.total_time_s


class Simulator:
    """Simulate lowered programs on a topology.

    A link's ``(alpha, beta)`` is read from the topology the first time the
    link is priced and kept; degrade a fabric by building a new topology
    (as ``FaultSet.apply`` does), not by editing this one in place.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.protocols = dict(DEFAULT_PROTOCOLS)
        self._capacity = topology.link_capacity()
        # bandwidth multiplier -> link -> (alpha, beta): bounded by the
        # topology's links, and holds no reference to any program.
        self._link_costs: Dict[float, Dict[Tuple[int, int], Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    def chunk_bytes(self, program: Program, size_bytes: float) -> float:
        """Bytes per chunk for a per-node input buffer of ``size_bytes``."""
        if not 0 <= size_bytes < math.inf:
            raise SimulationError(f"input size must be finite and non-negative, got {size_bytes!r}")
        if program.chunks_per_node <= 0:
            raise SimulationError("program has no chunks")
        return size_bytes / program.chunks_per_node

    def link_beta(self, src: int, dst: int, protocol: ProtocolModel) -> float:
        """Per-byte time of a directed link under a protocol."""
        capacity = self._capacity.get((src, dst), 0)
        if capacity <= 0:
            raise SimulationError(f"no link {src}->{dst} in topology {self.topology.name!r}")
        # A capacity-b link aggregates b unit-bandwidth lanes (e.g. the
        # double-NVLink DGX-1 edges), so its per-byte time is beta / b.
        # Fault models inflate individual links via ``link_beta_scale``.
        scale = self.topology.link_beta_scale.get((src, dst), 1.0)
        return self.topology.beta * scale / (capacity * protocol.bandwidth_multiplier)

    def link_alpha(self, src: int, dst: int) -> float:
        return self.topology.link_latency.get((src, dst), DEFAULT_LINK_LATENCY_S)

    # ------------------------------------------------------------------
    def _rows(self, program: Program, protocol: ProtocolModel) -> Tuple[list, int]:
        """Per step ``(transfers, [(link, m, alpha + m * fixed, beta)], (m, ...))``, peak m.

        Size-independent, so priced once per (cost table, fixed cost) from
        the program's per-step view and kept in :attr:`Program.priced`: the
        rows die with the program.  The memo keeps the cost table alive, so
        the table's ``id`` in its key is never reused while the entry lives.
        """
        costs = self._link_costs.setdefault(protocol.bandwidth_multiplier, {})
        fixed = protocol.per_transfer_fixed_s
        memo = program.priced.get((id(costs), fixed))
        if memo is None:
            rows = []
            for sends, _ in program.steps:
                per_link: Dict[Tuple[int, int], int] = {}
                for rank, instr in sends:
                    link = (rank, instr.peer)
                    per_link[link] = per_link.get(link, 0) + 1
                links = []
                for link, messages in per_link.items():
                    cost = costs.get(link)
                    if cost is None:
                        beta = self.link_beta(link[0], link[1], protocol)
                        cost = costs[link] = (self.link_alpha(*link), beta)
                    links.append((link, messages, cost[0] + messages * fixed, cost[1]))
                rows.append((len(sends), links, tuple(per_link.values())))
            peak = max((m for row in rows for m in row[2]), default=0)
            memo = program.priced[id(costs), fixed] = (costs, rows, peak)
        return memo[1], memo[2]

    def simulate(self, program: Program, size_bytes: float) -> SimulationResult:
        """Simulate a program for a per-node input of ``size_bytes`` bytes.

        On top of :meth:`_rows`, a size costs its payloads and ``base +
        payload * beta`` per busy link: the association of ``alpha + m *
        fixed + payload * beta``, so times are bit-identical to a rescan.
        Sizes must be finite and non-negative; 0 prices latency only.
        """
        protocol = self.protocols.get(program.protocol)
        if protocol is None:
            raise SimulationError(f"no cost model for protocol {program.protocol!r}")
        chunk_bytes = self.chunk_bytes(program, size_bytes)
        rows, peak = self._rows(program, protocol)
        # payloads[m] is m chunks pushed over one link, summed one by one.
        payloads = [0.0]
        for _ in range(peak):
            payloads.append(payloads[-1] + chunk_bytes)

        sync = protocol.per_step_sync_s
        total = protocol.kernel_launch_s
        for _, links, _ in rows:
            # Sends over the same link serialize, different links run in
            # parallel.
            total += sync + max(
                [base + payloads[count] * beta for _, count, base, beta in links], default=0.0
            )
        return SimulationResult(
            program_name=program.name,
            protocol=program.protocol,
            size_bytes=size_bytes,
            total_time_s=total,
            _steps=(rows, payloads, sync),
        )

    # ------------------------------------------------------------------
    def simulate_algorithm(self, algorithm: Algorithm, size_bytes: float) -> SimulationResult:
        """Lower (single-kernel push) and simulate in one call."""
        from .lowering import lower

        return self.simulate(lower(algorithm), size_bytes)

