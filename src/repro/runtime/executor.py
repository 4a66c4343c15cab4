"""Functional executor: run a lowered program on real buffers.

This is the correctness half of the hardware substitute.  Every rank gets
a buffer with one slot per global chunk; SENDs copy slots between ranks'
buffers, RECV_REDUCE folds them with ``+``.  After execution the buffers
are checked against the collective's mathematical definition, which gives
an end-to-end test of synthesis + lowering that does not depend on the
algorithm verifier (the two are implemented independently on purpose).
It reads the program's per-step view (``Program.steps``), which the
simulator and the fault scan share.

Buffers are lists of Python floats, one row per rank and one slot per
chunk (NaN where a chunk is absent); the result returns those rows as they
are.  Each rank's initial contribution for chunk ``c`` is a deterministic
pseudo-random value derived from ``(rank, c)``, so reductions are exact
(sums of distinct integers) and misplaced chunks are detected reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.algorithm import Algorithm
from .program import Program


class ExecutionError(Exception):
    """Raised when execution fails or produces wrong results."""


def _input_value(rank: int, chunk: int) -> float:
    """Deterministic distinct contribution of ``rank`` for ``chunk``."""
    return float(rank * 1_000_003 + chunk * 97 + 1)


@dataclass
class ExecutionResult:
    """Final buffers plus bookkeeping from a functional run."""

    buffers: List[List[float]]     # one row of chunks per rank, NaN = absent
    transfers: int = 0
    reduced_transfers: int = 0
    steps_executed: int = 0


class Executor:
    """Execute a :class:`~repro.runtime.program.Program` step by step.

    The buffers are lists of Python floats (IEEE doubles); :meth:`run`
    returns the rows it computed on.
    """

    def __init__(self, program: Program, algorithm: Algorithm) -> None:
        self.program = program
        self.algorithm = algorithm
        self.num_ranks = program.num_ranks
        self.num_chunks = program.num_chunks

    # ------------------------------------------------------------------
    # Initial buffer state
    # ------------------------------------------------------------------
    def initial_buffers(self) -> List[List[float]]:
        """One row per rank, one slot per chunk; NaN where a chunk is absent."""
        buffers = [[math.nan] * self.num_chunks for _ in range(self.num_ranks)]
        # Without combining, every holder starts with the origin's value.
        origin_values = None if self.algorithm.combining else self.expected_values()
        for (chunk, node) in self.algorithm.precondition:
            buffers[node][chunk] = (
                _input_value(node, chunk) if origin_values is None else origin_values[chunk]
            )
        return buffers

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        buffers = self.initial_buffers()
        steps = self.program.steps
        transfers = reduced = 0
        for step, (sends, reduce_keys) in enumerate(steps):
            # Synchronous step semantics: all sends read the buffer state at
            # the start of the step (matching V_s -> V_{s+1} in the paper).
            # Every read below happens before the step's first write, so the
            # live buffers are that state; no snapshot is taken.
            arrivals: List[Tuple[int, int, float]] = []
            for (rank, (_, chunk, peer, _)) in sends:
                value = buffers[rank][chunk]
                if math.isnan(value):
                    raise ExecutionError(
                        f"step {step}: rank {rank} sends chunk {chunk} "
                        f"before it is available"
                    )
                arrivals.append((peer, chunk, value))
            # Match arrivals against the receive instructions to honour the
            # reduce/copy distinction recorded at lowering time.
            for (dst, chunk, value) in arrivals:
                row = buffers[dst]
                if (dst, chunk) in reduce_keys:
                    current = row[chunk]
                    row[chunk] = value if math.isnan(current) else current + value
                    reduced += 1
                else:
                    row[chunk] = value
            transfers += len(arrivals)
        return ExecutionResult(buffers, transfers, reduced, steps_executed=len(steps))

    # ------------------------------------------------------------------
    # Result checking
    # ------------------------------------------------------------------
    def expected_values(self) -> Dict[int, float]:
        """Every chunk's final value: its lowest holder's input, or the sum of all."""
        holders: Dict[int, List[int]] = {}
        for (chunk, node) in self.algorithm.precondition:
            holders.setdefault(chunk, []).append(node)
        if self.algorithm.combining:
            return {
                chunk: float(sum(_input_value(n, chunk) for n in sorted(nodes)))
                for chunk, nodes in holders.items()
            }
        return {chunk: _input_value(min(nodes), chunk) for chunk, nodes in holders.items()}

    def check(self, result: ExecutionResult) -> None:
        """Verify the final buffers against the collective's definition."""
        buffers = result.buffers
        expected_values = self.expected_values()
        for (chunk, node) in self.algorithm.postcondition:
            actual = buffers[node][chunk]
            if math.isnan(actual):
                raise ExecutionError(
                    f"chunk {chunk} missing at rank {node} after execution"
                )
            # numpy.isclose's default test, on scalars.
            expected = expected_values[chunk]
            if not abs(actual - expected) <= 1e-8 + 1e-5 * abs(expected):
                raise ExecutionError(
                    f"chunk {chunk} at rank {node}: expected {expected}, got {actual}"
                )


def execute(program: Program, algorithm: Algorithm, check: bool = True) -> ExecutionResult:
    """Convenience wrapper: run a program and (optionally) check its output."""
    executor = Executor(program, algorithm)
    result = executor.run()
    if check:
        executor.check(result)
    return result
