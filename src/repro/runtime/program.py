"""Per-rank program IR — the lowering target for synthesized algorithms.

Section 4 of the paper describes SCCL's code generation: each GPU gets its
own code under a top-level switch, communication happens by writing into
remote buffers through IPC pointers, and steps are separated either by
kernel launches (multi-kernel mode) or by flag-based signal/wait inside a
single fused kernel.

Because this reproduction has no GPUs, the lowering target is an explicit
per-rank instruction tuple that the functional executor
(:mod:`repro.runtime.executor`) and the discrete-event simulator
(:mod:`repro.runtime.simulator`) both consume, and that the CUDA-like code
emitter (:mod:`repro.runtime.codegen`) pretty-prints.  The instruction set
mirrors what the generated CUDA does:

* ``SEND`` — write a chunk into a peer's buffer (push model) and raise the
  peer's flag for that chunk,
* ``RECV`` / ``RECV_REDUCE`` — wait on the local flag for a chunk written
  by a peer (and optionally fold it into the local accumulator),
* ``BARRIER`` — step boundary (kernel re-launch in multi-kernel mode).

A :class:`Program` is a value: :func:`~repro.runtime.lowering.lower` makes
it from a verified algorithm and nothing edits it afterwards, so what is
derived from it (the per-step view, the simulator's priced rows) is derived
once and kept on it.  It is not an input format: schedules are read back as
an :class:`~repro.core.algorithm.Algorithm` and verified as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, FrozenSet, NamedTuple, Tuple


class OpCode(Enum):
    SEND = "send"
    RECV = "recv"
    RECV_REDUCE = "recv_reduce"
    BARRIER = "barrier"


class Instruction(NamedTuple):
    """One instruction of a rank program: an immutable, hashable tuple.

    ``chunk`` and ``peer`` are meaningful for SEND/RECV/RECV_REDUCE;
    ``step`` records which synchronous step of the source algorithm the
    instruction implements (used for simulation and reporting).  Consumers
    unpack it as ``op, chunk, peer, step``.
    """

    op: OpCode
    chunk: int = -1
    peer: int = -1
    step: int = -1

    def __str__(self) -> str:
        if self.op is OpCode.BARRIER:
            return f"barrier(step={self.step})"
        return f"{self.op.value}(chunk={self.chunk}, peer={self.peer}, step={self.step})"


@dataclass(frozen=True)
class Program:
    """A whole-machine program: one instruction tuple per rank.

    ``ranks[r]`` is what rank ``r`` executes, in order.  ``num_chunks`` is
    the number of chunk slots in every rank's buffer; ``chunks_per_node``
    is carried through from the algorithm for sizing (a chunk holds
    ``size_bytes / chunks_per_node`` bytes for non-combining collectives
    operating on a per-node buffer of ``size_bytes``).
    """

    name: str
    collective: str
    num_chunks: int
    chunks_per_node: int
    ranks: Tuple[Tuple[Instruction, ...], ...]
    protocol: str = "single_kernel_push"

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    @cached_property
    def steps(self) -> Tuple[Tuple[tuple, FrozenSet[Tuple[int, int]]], ...]:
        """The per-step view: ``(sends, reduce_keys)`` per synchronous step.

        ``sends`` holds the step's SENDs as ``(rank, instruction)`` in
        rank-then-program order, ``reduce_keys`` the ``(rank, chunk)`` keys
        of its RECV_REDUCEs.  Derived from :attr:`ranks` in one walk on first
        read and kept on the program, which cannot change under it.  The
        executor, the simulator and :func:`repro.faults.scan_program` read
        this, never the ranks.
        """
        sends, reduce_keys = [], []
        num_steps = 0
        send_op, reduce_op = OpCode.SEND, OpCode.RECV_REDUCE
        for rank, instructions in enumerate(self.ranks):
            for instr in instructions:
                op, chunk, _, step = instr
                if step >= num_steps:
                    sends.extend([] for _ in range(step + 1 - num_steps))
                    reduce_keys.extend(set() for _ in range(step + 1 - num_steps))
                    num_steps = step + 1
                if op is send_op:
                    sends[step].append((rank, instr))
                elif op is reduce_op:
                    reduce_keys[step].add((rank, chunk))
        return tuple(zip(map(tuple, sends), map(frozenset, reduce_keys)))

    @cached_property
    def priced(self) -> Dict[object, object]:
        """The simulator's size-independent rows for this program, by cost model.

        Filled by :class:`~repro.runtime.simulator.Simulator`; kept here so
        they die with the program.
        """
        return {}

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def total_instructions(self) -> int:
        return sum(map(len, self.ranks))
