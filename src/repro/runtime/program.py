"""Per-rank program IR — the lowering target for synthesized algorithms.

Section 4 of the paper describes SCCL's code generation: each GPU gets its
own code under a top-level switch, communication happens by writing into
remote buffers through IPC pointers, and steps are separated either by
kernel launches (multi-kernel mode) or by flag-based signal/wait inside a
single fused kernel.

Because this reproduction has no GPUs, the lowering target is an explicit
per-rank instruction list that the functional executor
(:mod:`repro.runtime.executor`) and the discrete-event simulator
(:mod:`repro.runtime.simulator`) both consume, and that the CUDA-like code
emitter (:mod:`repro.runtime.codegen`) pretty-prints.  The instruction set
mirrors what the generated CUDA does:

* ``SEND`` — write a chunk into a peer's buffer (push model) and raise the
  peer's flag for that chunk,
* ``RECV`` / ``RECV_REDUCE`` — wait on the local flag for a chunk written
  by a peer (and optionally fold it into the local accumulator),
* ``BARRIER`` — step boundary (kernel re-launch in multi-kernel mode).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Set, Tuple


class ProgramError(Exception):
    """Raised for malformed programs."""


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


@dataclass
class RankProgram:
    """The instruction sequence executed by one rank."""

    rank: int
    instructions: List[Instruction] = field(default_factory=list)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def transfers_by_peer(self) -> Dict[int, Dict[str, List[Instruction]]]:
        """Data-movement instructions grouped by peer.

        Returns ``{peer: {"send": [...], "recv": [...]}}`` with instructions
        in program order.  BARRIERs carry no peer and are excluded.  The
        MSCCL-style XML emitter uses this grouping to assign one threadblock
        per communicating peer, mirroring how the real MSCCL runtime binds a
        threadblock to a (send-peer, recv-peer) connection pair.
        """
        peers: Dict[int, Dict[str, List[Instruction]]] = {}
        for instruction in self.instructions:
            if instruction.op is OpCode.BARRIER:
                continue
            bucket = peers.setdefault(instruction.peer, {"send": [], "recv": []})
            kind = "send" if instruction.op is OpCode.SEND else "recv"
            bucket[kind].append(instruction)
        return peers

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class StepIndex:
    """Everything the per-step consumers ask of a program, from one walk.

    ``sends`` and ``reduce_keys`` have one entry per synchronous step: the
    SENDs as ``(rank, instruction)`` in rank-then-program order, and the
    ``(rank, chunk)`` keys of the RECV_REDUCEs.  ``sent``/``received`` hold a
    ``(chunk, src, dst, step)`` per SEND/receive, any step, for
    :meth:`Program.validate`.  ``source`` is a copy of the instruction lists
    the index was built from; comparing it with the live lists (identity
    checks at C speed, no Python-level walk) is how a mutation is noticed.
    ``priced`` holds the simulator's rows, so they die with the index.
    """

    sends: List[List[Tuple[int, Instruction]]]
    reduce_keys: List[Set[Tuple[int, int]]]
    sent: List[Tuple[int, int, int, int]]
    received: List[Tuple[int, int, int, int]]
    source: List[List[Instruction]]
    priced: Dict[object, object] = field(default_factory=dict)

    @staticmethod
    def build(ranks: List[RankProgram]) -> "StepIndex":
        sends, reduce_keys, sent, received = [], [], [], []
        source = [list(rank_program.instructions) for rank_program in ranks]
        num_steps = 0
        for rank_program, instructions in zip(ranks, source):
            rank = rank_program.rank
            for instr in instructions:
                op, chunk, peer, step = instr
                if step >= num_steps:  # never for a negative step
                    sends.extend([] for _ in range(step + 1 - num_steps))
                    reduce_keys.extend(set() for _ in range(step + 1 - num_steps))
                    num_steps = step + 1
                if op is OpCode.SEND:
                    sent.append((chunk, rank, peer, step))
                    if step >= 0:
                        sends[step].append((rank, instr))
                elif op is not OpCode.BARRIER:
                    received.append((chunk, peer, rank, step))
                    if op is OpCode.RECV_REDUCE and step >= 0:
                        reduce_keys[step].add((rank, chunk))
        return StepIndex(
            sends=sends, reduce_keys=reduce_keys, sent=sent, received=received, source=source
        )


@dataclass
class Program:
    """A whole-machine program: one :class:`RankProgram` per rank.

    ``num_chunks`` is the number of chunk slots in every rank's buffer;
    ``chunks_per_node`` is carried through from the algorithm for sizing
    (a chunk holds ``size_bytes / chunks_per_node`` bytes for non-combining
    collectives operating on a per-node buffer of ``size_bytes``).
    """

    name: str
    collective: str
    num_ranks: int
    num_chunks: int
    chunks_per_node: int
    ranks: List[RankProgram] = field(default_factory=list)
    protocol: str = "single_kernel_push"
    metadata: Dict[str, object] = field(default_factory=dict)
    _index: Optional[StepIndex] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ranks:
            self.ranks = [RankProgram(rank=r) for r in range(self.num_ranks)]
        if len(self.ranks) != self.num_ranks:
            raise ProgramError(
                f"expected {self.num_ranks} rank programs, got {len(self.ranks)}"
            )

    def rank(self, index: int) -> RankProgram:
        if not 0 <= index < self.num_ranks:
            raise ProgramError(f"rank {index} out of range")
        return self.ranks[index]

    def step_index(self) -> StepIndex:
        """The program's :class:`StepIndex`, rebuilt if the instructions changed.

        Built on first use and kept on the program itself, so it is freed
        with it.  The lists inside are shared: read them, do not edit them.
        """
        index = self._index
        if index is None or index.source != [rank.instructions for rank in self.ranks]:
            index = self._index = StepIndex.build(self.ranks)
        return index

    @property
    def num_steps(self) -> int:
        return len(self.step_index().sends)

    def total_instructions(self) -> int:
        return sum(len(rank) for rank in self.ranks)

    def sends_at_step(self, step: int) -> List[Tuple[int, Instruction]]:
        """All SENDs scheduled for a given synchronous step, as (rank, instr)."""
        sends = self.step_index().sends
        return list(sends[step]) if 0 <= step < len(sends) else []

    def validate(self) -> None:
        """Structural checks, read off :meth:`step_index` (no walk of its own).

        A SEND/RECV/RECV_REDUCE must name a chunk in ``[0, num_chunks)``, a
        peer in ``[0, num_ranks)`` and a step ``>= 0`` (the error names the
        rank and the instruction), and each ``(chunk, src, dst, step)`` must
        be sent as often as received (the error names up to five keys that
        are not, with both counts).
        """
        index = self.step_index()
        chunks, ranks = self.num_chunks, self.num_ranks
        for keys, peer_column in ((index.sent, 2), (index.received, 1)):
            columns = tuple(zip(*keys))
            if keys and not (0 <= min(columns[0]) and max(columns[0]) < chunks
                             and 0 <= min(columns[peer_column])
                             and max(columns[peer_column]) < ranks and min(columns[3]) >= 0):
                rank, instr = next(
                    (rank_program.rank, instr)
                    for rank_program, instructions in zip(self.ranks, index.source)
                    for instr in instructions
                    if instr.op is not OpCode.BARRIER and not (
                        0 <= instr.chunk < chunks and 0 <= instr.peer < ranks and instr.step >= 0
                    )
                )
                raise ProgramError(
                    f"rank {rank}: {instr} is out of range "
                    f"(chunk in [0, {chunks}), peer in [0, {ranks}), step >= 0)"
                )
        sent, received = index.sent, index.received
        distinct = set(sent)
        if len(distinct) == len(sent) == len(received) and distinct == set(received):
            return  # no duplicate and no stray: the common case, at C speed
        sent, received = Counter(sent), Counter(received)
        unmatched = sorted(
            (key, sent[key], received[key])
            for key in sent.keys() | received.keys() if sent[key] != received[key]
        )
        if unmatched:
            named = "; ".join(f"{key} sent {s}, received {r}" for key, s, r in unmatched[:5])
            more = f" (+{len(unmatched) - 5} more)" if len(unmatched) > 5 else ""
            raise ProgramError(
                f"unmatched send/recv counts for (chunk, src, dst, step): {named}{more}"
            )
