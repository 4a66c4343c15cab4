"""Lowering: turn an :class:`~repro.core.algorithm.Algorithm` into a per-rank program.

The lowering mirrors Section 4 of the paper.  A synthesized algorithm is a
sequence of synchronous steps, each a set of sends.  For every step and
every rank the lowering emits:

* a ``SEND`` per outgoing chunk transfer (push model: the sender writes the
  remote buffer and raises the destination's flag),
* a ``RECV`` (or ``RECV_REDUCE`` for combining transfers) per incoming
  transfer, and
* a ``BARRIER`` at the end of the step when the multi-kernel protocol is
  selected; the fused single-kernel protocol relies on per-chunk flags only
  and carries no global barrier.

Protocols
---------
``single_kernel_push`` (default)
    One fused kernel; only flag-based synchronization between peers.
``multi_kernel_push``
    One kernel launch per step, adding a per-step barrier/launch overhead.
``multi_kernel_memcpy``
    Per-step cudaMemcpy-based data movement (DMA engines): higher fixed
    per-transfer cost, slightly higher bandwidth (the "(6,7,7) cudamemcpy"
    series of Figure 4).
"""

from __future__ import annotations

from ..core.algorithm import Algorithm
from .program import Instruction, OpCode, Program

#: Protocols understood by the lowering, simulator and code generator.
PROTOCOLS = ("single_kernel_push", "multi_kernel_push", "multi_kernel_memcpy")


class LoweringError(Exception):
    """Raised when an algorithm cannot be lowered."""


def lower(
    algorithm: Algorithm,
    protocol: str = "single_kernel_push",
) -> Program:
    """Lower an algorithm to a :class:`~repro.runtime.program.Program`.

    The algorithm is verified first (:meth:`Algorithm.verify` checks a
    content in full once, so lowering one unchanged algorithm under several
    protocols pays for one check); lowering an invalid schedule is always a
    bug upstream.  So every instruction is in range by construction: a
    verified send names a chunk in range and two ranks of the topology.
    """
    if protocol not in PROTOCOLS:
        raise LoweringError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    algorithm.verify()

    barrier_per_step = protocol.startswith("multi_kernel")
    # Verified sends name existing ranks: append straight to each rank's list.
    ranks = [[] for _ in range(algorithm.topology.num_nodes)]
    appends = [instructions.append for instructions in ranks]
    send_op, recv_op, reduce_op = OpCode.SEND, OpCode.RECV, OpCode.RECV_REDUCE
    for index, step in enumerate(algorithm.steps):
        # Emit sends first, then receives: under the push model the sender
        # writes remote memory and the receiver only waits on its flag, so
        # per-rank ordering within a step does not matter; a deterministic
        # order keeps programs reproducible.  A send and its receive are
        # emitted together, at the same step, so every SEND is matched.
        for send in step.sends:
            chunk, src, dst = send.chunk, send.src, send.dst
            appends[src](Instruction(send_op, chunk, dst, index))
            appends[dst](Instruction(
                reduce_op if send.op == "reduce" else recv_op, chunk, src, index
            ))
        if barrier_per_step:
            # Instructions are immutable: one barrier serves every rank.
            barrier = Instruction(OpCode.BARRIER, -1, -1, index)
            for append in appends:
                append(barrier)

    return Program(
        name=f"{algorithm.name}_{protocol}",
        collective=algorithm.collective,
        num_chunks=algorithm.num_chunks,
        chunks_per_node=algorithm.chunks_per_node,
        ranks=tuple(map(tuple, ranks)),
        protocol=protocol,
    )
