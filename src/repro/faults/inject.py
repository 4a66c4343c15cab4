"""Fault injection: run a deployed plan against a fault set and see it fail.

The service-side story (register a fault, replan) only matters if the *old*
plan actually breaks on the degraded machine.  This module is that check:
it scans a lowered :class:`~repro.runtime.program.Program` for transfers
crossing dead links and reports exactly which step, sender, receiver and
chunk hit the fault first — the observable a real deployment would produce
as a hung flag-wait on the receiving rank.

Two entry points mirror the runtime's two halves:

* :func:`execute_with_faults` — the functional executor under injection;
  a faulty plan raises :class:`FaultInjectionError` at its earliest dead
  send, a clean plan runs (and checks) normally.
* :func:`simulate_with_faults` — the alpha-beta simulator on the degraded
  topology; cost inflation from ``LinkDegraded`` shows up in the estimate,
  dead links raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Union

from ..core.algorithm import Algorithm
from ..runtime.executor import ExecutionResult, execute
from ..runtime.program import Program
from ..runtime.simulator import SimulationResult, Simulator
from ..topology import Link, Topology
from .models import FaultError, FaultSet


@dataclass(frozen=True)
class FaultViolation:
    """One transfer of a program that crosses a dead link."""

    step: int
    src: int
    dst: int
    chunk: int

    def describe(self) -> str:
        return (
            f"step {self.step}: rank {self.src} sends chunk {self.chunk} "
            f"over dead link {self.src}->{self.dst}"
        )


class FaultInjectionError(FaultError):
    """A deployed plan traverses a dead link.

    Carries every violating transfer (``violations``, ordered by step then
    sender); the message names the earliest one — the step at which a real
    run would hang.
    """

    def __init__(self, program_name: str, violations: List[FaultViolation]) -> None:
        self.program_name = program_name
        self.violations = list(violations)
        first = self.violations[0]
        extra = len(self.violations) - 1
        suffix = f" (+{extra} more dead transfer(s))" if extra else ""
        super().__init__(
            f"program {program_name!r} fails under faults — {first.describe()}{suffix}"
        )


def _dead_links(
    faults: Union[FaultSet, Set[Link]], topology: Optional[Topology]
) -> Set[Link]:
    if isinstance(faults, FaultSet):
        if topology is None:
            raise FaultError("a FaultSet needs the base topology to resolve dead links")
        return faults.dead_links(topology)
    return set(faults)


def scan_program(
    program: Program,
    faults: Union[FaultSet, Set[Link]],
    topology: Optional[Topology] = None,
) -> List[FaultViolation]:
    """Every SEND of ``program`` that crosses a dead link, ordered by step.

    ``faults`` is either a :class:`FaultSet` (resolved against
    ``topology``) or an explicit set of dead links.  The SENDs are read off
    the program's per-step view (:attr:`Program.steps`, derived once and
    shared with the executor and the simulator), so a scan walks no
    instructions of its own.
    """
    dead = _dead_links(faults, topology)
    violations = [
        FaultViolation(step=step, src=rank, dst=instr.peer, chunk=instr.chunk)
        for step, (sends, _) in enumerate(program.steps)
        for rank, instr in sends
        if (rank, instr.peer) in dead
    ]
    violations.sort(key=lambda v: (v.step, v.src, v.dst, v.chunk))
    return violations


def execute_with_faults(
    program: Program,
    algorithm: Algorithm,
    faults: Union[FaultSet, Set[Link]],
    topology: Optional[Topology] = None,
) -> ExecutionResult:
    """Run ``program`` on the functional executor under fault injection.

    Raises :class:`FaultInjectionError` (naming the earliest failing step,
    sender and peer) when any transfer crosses a dead link; otherwise the
    plan is executed and verified against the collective's definition
    exactly as without faults.
    """
    violations = scan_program(program, faults, topology)
    if violations:
        raise FaultInjectionError(program.name, violations)
    return execute(program, algorithm)


def simulate_with_faults(
    program: Program,
    topology: Topology,
    fault_set: FaultSet,
    size_bytes: float,
) -> SimulationResult:
    """Simulate ``program`` on the topology degraded by ``fault_set``.

    Dead-link traversals raise :class:`FaultInjectionError` with the
    per-step detail (the raw simulator would raise a generic missing-link
    error); surviving programs are costed with the degraded alpha/beta
    figures, so ``LinkDegraded`` inflation is visible in the estimate.
    """
    violations = scan_program(program, fault_set, topology)
    if violations:
        raise FaultInjectionError(program.name, violations)
    degraded = fault_set.apply(topology)
    return Simulator(degraded).simulate(program, size_bytes)
