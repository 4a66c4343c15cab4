"""Collective algorithms: the (Q, T) candidate solutions and their semantics.

Section 3.3 of the paper defines a candidate solution as a pair ``(Q, T)``
where ``Q = r_0 .. r_{S-1}`` gives the number of rounds per step and ``T``
is a set of sends ``(c, n, n', s)``.  This module holds the executable
representation of such solutions:

* :class:`Send` — one chunk transfer (optionally a reducing transfer),
* :class:`Step` — a synchronous step: its round count and its sends,
* :class:`Algorithm` — the full schedule together with the instance data
  needed to verify it (topology, pre/post conditions, chunk counts).

Verification implements the run semantics ``V_0 .. V_S`` from the paper,
generalized with *contribution tracking* so the same machinery validates
combining algorithms produced by the inversion of Section 3.5: the state
maps every ``(chunk, node)`` to the set of original inputs folded into that
buffer.  A non-combining collective is correct when every post-condition
pair holds *some* copy; a combining collective is correct when it holds a
copy containing *every* contribution exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..collectives import Placement
from ..topology import Topology

SendOp = str  # "copy" or "reduce"


class AlgorithmError(Exception):
    """Raised when a schedule violates the SynColl semantics."""


@dataclass(frozen=True)
class Send:
    """A single chunk transfer within a step.

    ``op == "copy"`` overwrites the destination buffer with the source's
    version of the chunk (non-combining collectives and the Allgather phase
    of Allreduce).  ``op == "reduce"`` folds the source's version into the
    destination buffer (the combining phase produced by inversion).
    """

    chunk: int
    src: int
    dst: int
    op: SendOp = "copy"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise AlgorithmError(f"send of chunk {self.chunk} from node {self.src} to itself")
        if self.op not in ("copy", "reduce"):
            raise AlgorithmError(f"unknown send op {self.op!r}")


@dataclass(frozen=True)
class Step:
    """A synchronous step: ``rounds`` rounds and the sends executed in it."""

    rounds: int
    sends: Tuple[Send, ...] = ()

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise AlgorithmError("negative round count")
        if not isinstance(self.sends, tuple):
            # A step is immutable all the way down: Algorithm.verify relies on it.
            object.__setattr__(self, "sends", tuple(self.sends))

    @property
    def num_sends(self) -> int:
        return len(self.sends)


# Contribution state: which original inputs are folded into each buffer.
ContributionState = Dict[Tuple[int, int], FrozenSet[int]]


@dataclass
class Algorithm:
    """A synthesized (or hand-written) collective algorithm.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"allgather_dgx1_c6_s3_r7"``.
    collective:
        Collective name this algorithm implements.
    topology:
        The topology it was synthesized for.
    chunks_per_node:
        The per-node chunk count ``C`` (cost model denominator).
    num_chunks:
        The global chunk count ``G``.
    precondition / postcondition:
        Chunk placements before and after.
    steps:
        The schedule.
    combining:
        True when the post-condition requires fully-reduced buffers.
    """

    name: str
    collective: str
    topology: Topology
    chunks_per_node: int
    num_chunks: int
    precondition: Placement
    postcondition: Placement
    steps: List[Step] = field(default_factory=list)
    combining: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)
    # What the last successful verify() checked (see _verify_inputs).  Not a
    # constructor argument, so replace(), from_dict and every import start
    # without one; __getstate__ keeps it out of pickles and copies.
    _witness: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_witness": None}

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """The latency cost S."""
        return len(self.steps)

    @property
    def total_rounds(self) -> int:
        """The total rounds R (sum of per-step rounds)."""
        return sum(step.rounds for step in self.steps)

    @property
    def bandwidth_cost(self) -> Fraction:
        """The bandwidth cost R / C."""
        return Fraction(self.total_rounds, self.chunks_per_node)

    @property
    def synchrony(self) -> int:
        """The k for which this algorithm is k-synchronous (R - S)."""
        return self.total_rounds - self.num_steps

    def signature(self) -> Tuple[int, int, int]:
        """The (C, S, R) triple used throughout the paper's tables."""
        return (self.chunks_per_node, self.num_steps, self.total_rounds)

    def cost(self, size_bytes: float, alpha: Optional[float] = None, beta: Optional[float] = None) -> float:
        """Alpha-beta cost for an input of ``size_bytes`` bytes per node.

        ``S * alpha + (R / C) * L * beta`` (Section 3.6).  ``alpha`` and
        ``beta`` default to the topology's parameters.
        """
        from .cost import algorithm_cost

        alpha = self.topology.alpha if alpha is None else alpha
        beta = self.topology.beta if beta is None else beta
        return algorithm_cost(
            steps=self.num_steps,
            rounds=self.total_rounds,
            chunks=self.chunks_per_node,
            size_bytes=size_bytes,
            alpha=alpha,
            beta=beta,
        )

    # ------------------------------------------------------------------
    # Run semantics and verification
    # ------------------------------------------------------------------
    def initial_state(self) -> ContributionState:
        """The contribution state corresponding to the precondition.

        For non-combining algorithms every resident copy of a chunk is the
        same data, so the contribution set is the singleton of the chunk's
        canonical origin.  For combining algorithms every resident copy is
        that node's *own* partial input.
        """
        if self.combining:
            return {(chunk, node): frozenset({node}) for (chunk, node) in self.precondition}
        origin: Dict[int, int] = {}
        for (chunk, node) in self.precondition:
            if node < origin.get(chunk, node + 1):
                origin[chunk] = node
        return {
            (chunk, node): frozenset({origin[chunk]}) for (chunk, node) in self.precondition
        }

    def run(self) -> List[ContributionState]:
        """Execute the schedule, returning the state after every step.

        Raises :class:`AlgorithmError` if any send uses a chunk that is not
        present at its source at that step, or merges overlapping
        contributions (which would double-count inputs in a reduction).
        """
        history: List[ContributionState] = []
        self._replay(history)
        return history

    def _replay(self, history: Optional[List[ContributionState]] = None) -> ContributionState:
        """The run semantics; returns the final state.

        A step's sends all read the state as it was before the step, so its
        writes are collected apart and applied together.  With ``history``,
        a copy of the state is appended before the first step and after
        every step.
        """
        state = self.initial_state()
        if history is not None:
            history.append(dict(state))
        no_contributions: FrozenSet[int] = frozenset()
        for index, step in enumerate(self.steps):
            written: ContributionState = {}
            for send in step.sends:
                incoming = state.get((send.chunk, send.src))
                if incoming is None:
                    raise AlgorithmError(
                        f"step {index}: node {send.src} sends chunk {send.chunk} "
                        f"it does not hold"
                    )
                key_dst = (send.chunk, send.dst)
                if send.op == "copy":
                    written[key_dst] = incoming
                else:  # reduce
                    existing = written.get(key_dst)
                    if existing is None:
                        existing = state.get(key_dst, no_contributions)
                    overlap = existing & incoming
                    if overlap:
                        raise AlgorithmError(
                            f"step {index}: reducing chunk {send.chunk} at node "
                            f"{send.dst} double-counts contributions {sorted(overlap)}"
                        )
                    written[key_dst] = existing | incoming
            state.update(written)
            if history is not None:
                history.append(dict(state))
        return state

    def check_bandwidth(self) -> None:
        """Check constraint C5: per-step link loads within ``b * r_s``."""
        link_set = self.topology.links()
        constraints = self.topology.constraints
        for index, step in enumerate(self.steps):
            loads: Dict[Tuple[int, int], int] = {}
            for send in step.sends:
                link = (send.src, send.dst)
                loads[link] = loads.get(link, 0) + 1
            for link in loads:
                if link not in link_set:
                    raise AlgorithmError(
                        f"step {index}: send scheduled on non-existent link {link}"
                    )
            for constraint in constraints:
                total = sum(loads.get(link, 0) for link in constraint.links)
                allowed = constraint.bandwidth * step.rounds
                if total > allowed:
                    raise AlgorithmError(
                        f"step {index}: {total} sends over constraint "
                        f"{constraint.name or sorted(constraint.links)} exceed "
                        f"bandwidth {constraint.bandwidth} x {step.rounds} rounds"
                    )

    def _verify_inputs(self) -> tuple:
        """Everything :meth:`verify` reads, as one comparable value.

        Steps and bandwidth constraints are frozen, so holding the objects
        is holding their content; the tuples copy the two lists that can be
        edited in place, and ``frozenset()`` copies a placement only when it
        is a mutable set.
        """
        topology = self.topology
        return (
            tuple(self.steps),
            tuple(topology.constraints),
            topology.num_nodes,
            frozenset(self.precondition),
            frozenset(self.postcondition),
            self.combining,
        )

    def verify(self) -> None:
        """Full validity check: run semantics, bandwidth, postcondition.

        An algorithm is checked in full once per content, and again whenever
        anything the check reads has changed: a successful check leaves a
        witness of its inputs on the object, and a later call returns at
        once while the live fields still compare equal to it (identical
        objects compare without being walked, so this costs O(S)).
        """
        inputs = self._verify_inputs()
        if self._witness == inputs:
            return
        self.check_bandwidth()
        final_state = self._replay()
        if self.combining:
            expected = self._full_contributions()
            for (chunk, node) in self.postcondition:
                got = final_state.get((chunk, node))
                if got is None:
                    raise AlgorithmError(
                        f"postcondition violated: chunk {chunk} missing at node {node}"
                    )
                if got != expected[chunk]:
                    missing = sorted(expected[chunk] - got)
                    raise AlgorithmError(
                        f"postcondition violated: chunk {chunk} at node {node} is "
                        f"missing contributions {missing}"
                    )
        else:
            for (chunk, node) in self.postcondition:
                if (chunk, node) not in final_state:
                    raise AlgorithmError(
                        f"postcondition violated: chunk {chunk} never reaches node {node}"
                    )
        self._witness = inputs

    def _full_contributions(self) -> Dict[int, FrozenSet[int]]:
        full: Dict[int, Set[int]] = {}
        for (chunk, node) in self.precondition:
            full.setdefault(chunk, set()).add(node)
        return {chunk: frozenset(nodes) for chunk, nodes in full.items()}

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def renamed(self, name: str) -> "Algorithm":
        return replace(self, name=name)

    def pruned(self) -> "Algorithm":
        """Drop sends that do not contribute to the postcondition.

        The SMT encoding does not forbid "junk" sends that deliver a chunk
        to a node that neither needs it nor forwards it; they satisfy the
        constraints but waste bandwidth and break the inversion used to
        derive the combining collectives.  This backward sweep keeps exactly
        the sends on a dependency path to the postcondition.  Only defined
        for non-combining algorithms (combining schedules need every
        contribution by construction).
        """
        if self.combining:
            raise AlgorithmError("pruning is only defined for non-combining algorithms")
        needed: Set[Tuple[int, int]] = set(self.postcondition)
        kept_per_step: List[List[Send]] = [[] for _ in self.steps]
        delivered: Set[Tuple[int, int]] = set()
        for index in range(len(self.steps) - 1, -1, -1):
            for send in self.steps[index].sends:
                key = (send.chunk, send.dst)
                if key in self.precondition:
                    continue  # redundant delivery of an input chunk
                if key not in needed or key in delivered:
                    continue
                delivered.add(key)
                kept_per_step[index].append(send)
                needed.add((send.chunk, send.src))
        new_steps = [
            Step(rounds=step.rounds, sends=tuple(
                sorted(kept_per_step[i], key=lambda s: (s.src, s.dst, s.chunk))
            ))
            for i, step in enumerate(self.steps)
        ]
        return replace(self, steps=new_steps)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable schedule dump used by the examples."""
        c, s, r = self.signature()
        lines = [
            f"Algorithm {self.name!r}: {self.collective} on {self.topology.name}",
            f"  chunks/node C={c}, steps S={s}, rounds R={r} "
            f"(bandwidth cost {self.bandwidth_cost}, {self.synchrony}-synchronous)",
        ]
        for index, step in enumerate(self.steps):
            lines.append(f"  step {index} ({step.rounds} round(s), {step.num_sends} send(s)):")
            for send in sorted(step.sends, key=lambda x: (x.src, x.dst, x.chunk)):
                arrow = "=>" if send.op == "reduce" else "->"
                lines.append(f"    chunk {send.chunk:3d}: {send.src} {arrow} {send.dst}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly serialization (used by examples and the CLI).

        ``metadata`` is included only when non-empty so that algorithms
        without provenance keep the byte-identical serialization the cache
        and the determinism tests rely on.
        """
        data = {
            "name": self.name,
            "collective": self.collective,
            "topology": self.topology.to_dict(),
            "chunks_per_node": self.chunks_per_node,
            "num_chunks": self.num_chunks,
            "combining": self.combining,
            "precondition": sorted(self.precondition),
            "postcondition": sorted(self.postcondition),
            "steps": [
                {
                    "rounds": step.rounds,
                    "sends": [
                        {"chunk": s.chunk, "src": s.src, "dst": s.dst, "op": s.op}
                        for s in step.sends
                    ],
                }
                for step in self.steps
            ],
        }
        if self.metadata:
            data["metadata"] = dict(self.metadata)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Algorithm":
        return cls(
            name=data["name"],
            collective=data["collective"],
            topology=Topology.from_dict(data["topology"]),
            chunks_per_node=data["chunks_per_node"],
            num_chunks=data["num_chunks"],
            precondition=frozenset(tuple(x) for x in data["precondition"]),
            postcondition=frozenset(tuple(x) for x in data["postcondition"]),
            steps=[
                Step(
                    rounds=entry["rounds"],
                    sends=tuple(
                        Send(s["chunk"], s["src"], s["dst"], s.get("op", "copy"))
                        for s in entry["sends"]
                    ),
                )
                for entry in data["steps"]
            ],
            combining=data.get("combining", False),
            metadata=dict(data.get("metadata", {})),
        )
