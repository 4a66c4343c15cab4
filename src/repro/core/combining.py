"""Combining collectives via inversion (Section 3.5).

The paper synthesizes only non-combining collectives directly.  Combining
collectives are derived:

* **Reduce** is the inverse of **Broadcast**: wherever the broadcast sends a
  chunk from ``n`` to ``n'`` at step ``s``, the reduce receives the partial
  from ``n'`` at ``n`` at step ``S - 1 - s`` and folds it in.
* **Reducescatter** is the inverse of **Allgather** in the same way.
* **Allreduce** is a **Reducescatter** (the inverse of an Allgather)
  followed by that **Allgather**.

Inversion is valid for any collective whose chunks each have a single root
(origin) node; the unique-reception constraint C3 guarantees that the send
set of the source algorithm forms a tree per chunk, so the inverted
algorithm folds every node's partial into the root exactly once.

On asymmetric topologies the source algorithm must be synthesized on the
*reversed* topology so that the inverted sends travel over real links;
:func:`~repro.core.pareto.pareto_synthesize` does that for Reduce and
Reducescatter.  All machines evaluated in the paper are link-symmetric, in
which case reversal is a no-op.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..collectives import all_nodes
from ..topology import Topology
from .algorithm import Algorithm, Send, Step


class CombiningError(Exception):
    """Raised when an algorithm cannot be inverted."""


def _chunk_origins(algorithm: Algorithm) -> Dict[int, int]:
    origins: Dict[int, int] = {}
    for (chunk, node) in algorithm.precondition:
        if chunk in origins and origins[chunk] != node:
            raise CombiningError(
                f"chunk {chunk} has multiple sources ({origins[chunk]}, {node}); "
                f"inversion requires a single root per chunk"
            )
        origins[chunk] = node
    return origins


def invert_algorithm(
    algorithm: Algorithm,
    *,
    collective: Optional[str] = None,
    name: Optional[str] = None,
    target_topology: Optional[Topology] = None,
) -> Algorithm:
    """Invert a non-combining algorithm (Section 3.5).

    Every send ``(c, n -> n')`` at step ``s`` becomes the reduce
    ``(c, n' -> n)`` at step ``S - 1 - s``: the result is a combining
    algorithm (Reduce from Broadcast, Reducescatter from Allgather).

    ``target_topology`` is the topology the inverted algorithm runs on.  It
    defaults to the source algorithm's topology, which is correct whenever
    that topology is link-symmetric; otherwise pass the reverse topology the
    source was synthesized against.
    """
    if algorithm.combining:
        raise CombiningError("cannot invert an algorithm that is already combining")
    # Drop junk sends first: the inversion relies on every send lying on a
    # dependency path to the original postcondition (otherwise an inverted
    # sender may not hold the data it is supposed to return).
    algorithm = algorithm.pruned()
    origins = _chunk_origins(algorithm)
    topology = target_topology or algorithm.topology
    if target_topology is None and not algorithm.topology.is_symmetric():
        raise CombiningError(
            f"topology {algorithm.topology.name!r} is not link-symmetric; "
            f"synthesize the source algorithm on topology.reversed() and pass "
            f"target_topology explicitly"
        )

    num_steps = algorithm.num_steps
    inverted_steps: List[Step] = []
    for index in range(num_steps - 1, -1, -1):
        source_step = algorithm.steps[index]
        sends = tuple(
            Send(chunk=s.chunk, src=s.dst, dst=s.src, op="reduce") for s in source_step.sends
        )
        inverted_steps.append(Step(rounds=source_step.rounds, sends=sends))

    # The inverted pre-condition: everywhere the source algorithm ever placed
    # the chunk (i.e. its post-condition plus its pre-condition) now holds a
    # partial.  The inverted post-condition: the chunk's single origin.
    pre: set = set(algorithm.postcondition) | set(algorithm.precondition)
    post = frozenset((chunk, origin) for chunk, origin in origins.items())

    if collective is None:
        collective = {
            "Allgather": "Reducescatter",
            "Broadcast": "Reduce",
        }.get(algorithm.collective, f"inverse_{algorithm.collective}")

    inverted = Algorithm(
        name=name or f"{collective.lower()}_from_{algorithm.name}",
        collective=collective,
        topology=topology,
        chunks_per_node=algorithm.chunks_per_node,
        num_chunks=algorithm.num_chunks,
        precondition=frozenset(pre),
        postcondition=post,
        steps=inverted_steps,
        combining=True,
        metadata={"derived_from": algorithm.name, "inversion_op": "reduce"},
    )
    return inverted


def allreduce_from_allgather(
    allgather: Algorithm,
    *,
    name: Optional[str] = None,
) -> Algorithm:
    """Build an Allreduce as Reducescatter (inverted Allgather) + Allgather.

    The resulting algorithm has per-node chunk count ``C_allreduce = G`` —
    every node's input buffer is divided into the Allgather's global chunk
    count — and ``S`` / ``R`` are twice the Allgather's, matching the
    Allreduce rows of Tables 4 and 5.
    """
    if allgather.collective != "Allgather":
        raise CombiningError(
            f"expected an Allgather algorithm, got {allgather.collective}"
        )
    rs = invert_algorithm(allgather)
    num_nodes = allgather.topology.num_nodes
    full = all_nodes(allgather.num_chunks, num_nodes)
    steps: List[Step] = []
    steps.extend(rs.steps)
    # The Allgather phase re-broadcasts the now fully-reduced chunks; its
    # sends are plain copies.
    steps.extend(allgather.steps)
    return Algorithm(
        name=name or f"allreduce_from_{allgather.name}",
        collective="Allreduce",
        topology=allgather.topology,
        chunks_per_node=allgather.num_chunks,
        num_chunks=allgather.num_chunks,
        precondition=full,
        postcondition=full,
        steps=steps,
        combining=True,
        metadata={
            "derived_from": allgather.name,
            "phase_split": rs.num_steps,
        },
    )
