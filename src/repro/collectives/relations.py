"""Chunk-placement relations (Table 1 of the paper).

A relation is a set of ``(chunk, node)`` pairs over the global chunk ids
``[G]`` and the nodes ``[P]``.  Pre- and post-conditions of collectives are
expressed with four standard relations:

=========  =============================================================
Name       Relation
=========  =============================================================
All        ``[G] x [P]`` — every chunk on every node
Root       ``[G] x {n_root}`` — every chunk on a single root node
Scattered  ``{(c, n) | n = c mod P}`` — chunk ``c`` lives on node ``c mod P``
Transpose  ``{(c, n) | n = floor(c / P) mod P}`` — the Alltoall destination
=========  =============================================================

Relations are represented as frozensets of ``(chunk, node)`` tuples so they
can be used directly as pre/post conditions of
:class:`~repro.core.instance.SynCollInstance` and hashed/compared in tests.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Tuple

Placement = FrozenSet[Tuple[int, int]]


class RelationError(Exception):
    """Raised for invalid relation parameters."""


def all_nodes(num_chunks: int, num_nodes: int) -> Placement:
    """The ``All`` relation: every chunk resident on every node."""
    _validate(num_chunks, num_nodes)
    return frozenset((c, n) for c in range(num_chunks) for n in range(num_nodes))


def root(num_chunks: int, num_nodes: int, root_node: int = 0) -> Placement:
    """The ``Root`` relation: every chunk resident only on ``root_node``."""
    _validate(num_chunks, num_nodes)
    if not 0 <= root_node < num_nodes:
        raise RelationError(f"root node {root_node} out of range [0, {num_nodes})")
    return frozenset((c, root_node) for c in range(num_chunks))


def scattered(num_chunks: int, num_nodes: int) -> Placement:
    """The ``Scattered`` relation: chunk ``c`` resides on node ``c mod P``.

    With ``num_chunks = C * P`` this gives every node exactly ``C`` chunks,
    which is the canonical input state of Allgather/Alltoall/Gather and the
    output state of Scatter/Reducescatter.
    """
    _validate(num_chunks, num_nodes)
    return frozenset((c, c % num_nodes) for c in range(num_chunks))


def transpose(num_chunks: int, num_nodes: int) -> Placement:
    """The ``Transpose`` relation: chunk ``c`` must end on node ``floor(c/P) mod P``.

    Combined with a Scattered pre-condition this specifies Alltoall: node
    ``s`` starts with chunks ``{c | c mod P = s}``; the chunk it holds for
    destination ``d`` is the one with ``floor(c / P) mod P = d``.
    """
    _validate(num_chunks, num_nodes)
    return frozenset((c, (c // num_nodes) % num_nodes) for c in range(num_chunks))


def _validate(num_chunks: int, num_nodes: int) -> None:
    if num_chunks < 0:
        raise RelationError("negative chunk count")
    if num_nodes <= 0:
        raise RelationError("need at least one node")


#: Registry used by :func:`repro.collectives.spec.get_collective`.
RELATION_BUILDERS: Dict[str, Callable[..., Placement]] = {
    "All": all_nodes,
    "Root": root,
    "Scattered": scattered,
    "Transpose": transpose,
}
