"""Collective primitive specifications (Table 2 of the paper).

A :class:`CollectiveSpec` names a collective, says whether it *combines*
data (reductions) or merely moves it, and knows how to produce the pre- and
post-condition placements for a given topology size and per-node chunk
count.  The mapping from the per-node chunk count ``C`` (what users and the
evaluation tables talk about) to the global chunk count ``G`` used in the
formalization is collective-dependent and implemented here:

============== ============ ====================================
Collective     pre → post   global chunks G for per-node count C
============== ============ ====================================
Gather         Scattered→Root        ``P * C``
Allgather      Scattered→All         ``P * C``
Alltoall       Scattered→Transpose   ``P * C``
Broadcast      Root→All              ``C``
Scatter        Root→Scattered        ``P * C``
Reduce         (inverse of Broadcast)
Reducescatter  (inverse of Allgather)
Allreduce      (Reducescatter then Allgather)
============== ============ ====================================

For Alltoall the per-node count ``C`` is the number of chunks each node
starts with (one or more destined to every peer); the paper's Table 4 rows
``C = 8`` and ``C = 24`` correspond to 1 and 3 chunks per destination on
the 8-GPU machines.  Destination assignment is balanced whenever ``C`` is a
multiple of ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import relations
from .relations import Placement


class CollectiveError(Exception):
    """Raised for unknown collectives or invalid parameters."""


@dataclass(frozen=True)
class CollectiveSpec:
    """Specification of a collective primitive.

    Attributes
    ----------
    name:
        Canonical name, e.g. ``"Allgather"``.
    pre_relation / post_relation:
        Names of Table 1 relations for non-combining collectives; ``None``
        for combining collectives that are synthesized via reduction
        (Section 3.5).
    combining:
        True for collectives that apply a reduction operation.
    root_based:
        True when the collective takes a root argument (Broadcast, Reduce,
        Gather, Scatter).
    inverse_of:
        For combining collectives obtained by inversion: the name of the
        non-combining collective whose algorithms are inverted.
    """

    name: str
    pre_relation: Optional[str]
    post_relation: Optional[str]
    combining: bool = False
    root_based: bool = False
    inverse_of: Optional[str] = None

    # ------------------------------------------------------------------
    # Chunk counting
    # ------------------------------------------------------------------
    def global_chunks(self, num_nodes: int, chunks_per_node: int) -> int:
        """Convert a per-node chunk count ``C`` to the global count ``G``."""
        if chunks_per_node < 0:
            raise CollectiveError("negative chunk count")
        if self.name in ("Broadcast", "Reduce"):
            return chunks_per_node
        if self.name in ("Allgather", "Gather", "Scatter", "Reducescatter", "Alltoall"):
            return num_nodes * chunks_per_node
        if self.name == "Allreduce":
            # Allreduce is synthesized as Reducescatter + Allgather over the
            # Allgather's chunks; each node contributes P * C chunks.
            return num_nodes * chunks_per_node
        raise CollectiveError(f"unknown collective {self.name!r}")

    # ------------------------------------------------------------------
    # Placements
    # ------------------------------------------------------------------
    def precondition(
        self, num_nodes: int, chunks_per_node: int, root: int = 0
    ) -> Placement:
        if self.pre_relation is None:
            raise CollectiveError(
                f"{self.name} is a combining collective; synthesize it via "
                f"its non-combining counterpart ({self.inverse_of})"
            )
        return self._relation(self.pre_relation, num_nodes, chunks_per_node, root)

    def postcondition(
        self, num_nodes: int, chunks_per_node: int, root: int = 0
    ) -> Placement:
        if self.post_relation is None:
            raise CollectiveError(
                f"{self.name} is a combining collective; synthesize it via "
                f"its non-combining counterpart ({self.inverse_of})"
            )
        return self._relation(self.post_relation, num_nodes, chunks_per_node, root)

    def _relation(
        self, relation_name: str, num_nodes: int, chunks_per_node: int, root: int
    ) -> Placement:
        num_global = self.global_chunks(num_nodes, chunks_per_node)
        builder = relations.RELATION_BUILDERS.get(relation_name)
        if builder is None:
            raise CollectiveError(f"unknown relation {relation_name!r}")
        if relation_name == "Root":
            return builder(num_global, num_nodes, root)
        return builder(num_global, num_nodes)

    def placements(
        self, num_nodes: int, chunks_per_node: int, root: int = 0
    ) -> Tuple[Placement, Placement]:
        """The (pre, post) placements an algorithm for this collective must have.

        For non-combining collectives these are the Table 2 relations.  For
        combining collectives — which are never encoded directly — they are
        the placements of the *derived* algorithms built by
        :mod:`repro.core.combining`:

        * Reduce (inverted Broadcast): every node holds a partial of every
          chunk (``All``); the root ends with the full reduction (``Root``).
          ``G = C``.
        * Reducescatter (inverted Allgather): ``All`` to ``Scattered`` with
          ``G = P * C``.
        * Allreduce (Reducescatter ; Allgather): ``All`` to ``All``.  The
          composition splits each node's buffer into the Allgather's global
          chunk count, so ``G = C`` under the derived-algorithm convention.

        This is the ground truth the interchange importers re-verify foreign
        schedules against (:mod:`repro.interchange.checks`).
        """
        if not self.combining:
            return (
                self.precondition(num_nodes, chunks_per_node, root),
                self.postcondition(num_nodes, chunks_per_node, root),
            )
        if self.name == "Reduce":
            num_global = chunks_per_node
            return (
                relations.all_nodes(num_global, num_nodes),
                relations.root(num_global, num_nodes, root),
            )
        if self.name == "Reducescatter":
            num_global = num_nodes * chunks_per_node
            return (
                relations.all_nodes(num_global, num_nodes),
                relations.scattered(num_global, num_nodes),
            )
        if self.name == "Allreduce":
            full = relations.all_nodes(chunks_per_node, num_nodes)
            return (full, full)
        raise CollectiveError(f"unknown combining collective {self.name!r}")


#: All collectives discussed by the paper.  Non-combining ones carry their
#: Table 2 pre/post relations; combining ones point at the non-combining
#: collective they are derived from (Section 3.5).
COLLECTIVES: Dict[str, CollectiveSpec] = {
    spec.name: spec
    for spec in [
        CollectiveSpec("Gather", "Scattered", "Root", root_based=True),
        CollectiveSpec("Allgather", "Scattered", "All"),
        CollectiveSpec("Alltoall", "Scattered", "Transpose"),
        CollectiveSpec("Broadcast", "Root", "All", root_based=True),
        CollectiveSpec("Scatter", "Root", "Scattered", root_based=True),
        CollectiveSpec(
            "Reduce", None, None, combining=True, root_based=True, inverse_of="Broadcast"
        ),
        CollectiveSpec(
            "Reducescatter", None, None, combining=True, inverse_of="Allgather"
        ),
        CollectiveSpec("Allreduce", None, None, combining=True, inverse_of="Allgather"),
    ]
}


def get_collective(name: str) -> CollectiveSpec:
    """Look up a collective by (case-insensitive) name."""
    for key, spec in COLLECTIVES.items():
        if key.lower() == name.lower():
            return spec
    raise CollectiveError(
        f"unknown collective {name!r}; known: {sorted(COLLECTIVES)}"
    )
