"""Functional executor: run a lowered program on real (numpy) buffers.

This is the correctness half of the hardware substitute.  Every rank gets
a buffer with one slot per global chunk; SENDs copy slots between ranks'
buffers, RECV_REDUCE folds them with ``+``.  After execution the buffers
are checked against the collective's mathematical definition, which gives
an end-to-end test of synthesis + lowering that does not depend on the
algorithm verifier (the two are implemented independently on purpose).

Buffers hold ``float64`` values; each rank's initial contribution for chunk
``c`` is a deterministic pseudo-random value derived from ``(rank, c)``, so
reductions are exact (sums of distinct integers) and misplaced chunks are
detected reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..collectives import get_collective
from ..core.algorithm import Algorithm
from .program import Program

if TYPE_CHECKING:  # numpy loads with the first execution, not with the package
    import numpy as np


class ExecutionError(Exception):
    """Raised when execution fails or produces wrong results."""


def _input_value(rank: int, chunk: int) -> float:
    """Deterministic distinct contribution of ``rank`` for ``chunk``."""
    return float(rank * 1_000_003 + chunk * 97 + 1)


@dataclass
class ExecutionResult:
    """Final buffers plus bookkeeping from a functional run."""

    buffers: np.ndarray            # shape (ranks, chunks), NaN = absent
    transfers: int = 0
    reduced_transfers: int = 0
    steps_executed: int = 0

    def chunk_present(self, rank: int, chunk: int) -> bool:
        return not math.isnan(self.buffers[rank, chunk])


class Executor:
    """Execute a :class:`~repro.runtime.program.Program` step by step."""

    def __init__(self, program: Program, algorithm: Algorithm) -> None:
        self.program = program
        self.algorithm = algorithm
        self.num_ranks = program.num_ranks
        self.num_chunks = program.num_chunks

    # ------------------------------------------------------------------
    # Initial buffer state
    # ------------------------------------------------------------------
    def initial_buffers(self) -> np.ndarray:
        import numpy as np

        buffers = np.full((self.num_ranks, self.num_chunks), np.nan)
        for (chunk, node) in self.algorithm.precondition:
            if self.algorithm.combining:
                buffers[node, chunk] = _input_value(node, chunk)
            else:
                origin = min(n for (c, n) in self.algorithm.precondition if c == chunk)
                buffers[node, chunk] = _input_value(origin, chunk)
        return buffers

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        buffers = self.initial_buffers()
        result = ExecutionResult(buffers=buffers)
        index = self.program.step_index()
        for step, sends in enumerate(index.sends):
            # Synchronous step semantics: all sends read the buffer state at
            # the start of the step (matching V_s -> V_{s+1} in the paper).
            snapshot = buffers.copy()
            arrivals: List[Tuple[int, int, float]] = []
            for (rank, instr) in sends:
                value = snapshot[rank, instr.chunk]
                if math.isnan(value):
                    raise ExecutionError(
                        f"step {step}: rank {rank} sends chunk {instr.chunk} "
                        f"before it is available"
                    )
                arrivals.append((instr.peer, instr.chunk, value))
            # Match arrivals against the receive instructions to honour the
            # reduce/copy distinction recorded at lowering time.
            reduce_keys = index.reduce_keys[step]
            for (dst, chunk, value) in arrivals:
                if (dst, chunk) in reduce_keys:
                    current = buffers[dst, chunk]
                    buffers[dst, chunk] = value if math.isnan(current) else current + value
                    result.reduced_transfers += 1
                else:
                    buffers[dst, chunk] = value
                result.transfers += 1
            result.steps_executed += 1
        result.buffers = buffers
        return result

    # ------------------------------------------------------------------
    # Result checking
    # ------------------------------------------------------------------
    def expected_value(self, chunk: int, node: int) -> Optional[float]:
        """The mathematically expected buffer value at (node, chunk), or None if unconstrained."""
        if (chunk, node) not in self.algorithm.postcondition:
            return None
        if self.algorithm.combining:
            contributors = sorted(
                n for (c, n) in self.algorithm.precondition if c == chunk
            )
            return float(sum(_input_value(n, chunk) for n in contributors))
        origin = min(n for (c, n) in self.algorithm.precondition if c == chunk)
        return _input_value(origin, chunk)

    def check(self, result: ExecutionResult) -> None:
        """Verify the final buffers against the collective's definition."""
        buffers = result.buffers.tolist()
        for (chunk, node) in self.algorithm.postcondition:
            expected = self.expected_value(chunk, node)
            actual = buffers[node][chunk]
            if math.isnan(actual):
                raise ExecutionError(
                    f"chunk {chunk} missing at rank {node} after execution"
                )
            # numpy.isclose's default test, on scalars.
            if expected is not None and not (
                abs(actual - expected) <= 1e-8 + 1e-5 * abs(expected)
            ):
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
