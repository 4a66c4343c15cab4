"""The baseline suite: every hand-written algorithm that fits an instance.

:func:`baseline_suite` tries each applicable builder (ring, tree,
pipelined, NCCL/RCCL) for a ``(collective, topology, root)`` and returns
the ones that apply, each wrapped in a :class:`BaselineAlgorithm` exposing
the uniform ``cost() -> (steps, rounds, chunks)`` accessor the
bound-seeding layer keys on.  Every returned algorithm has been re-checked
with :meth:`~repro.core.algorithm.Algorithm.verify`, so a baseline-derived
upper bound can never claim feasibility the lattice does not have.

Builders that do not fit — no Hamiltonian ring in the topology, an
unmodeled fabric for the NCCL tables, a collective with no hand-written
form — are skipped silently: the suite is best-effort by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..core.algorithm import Algorithm
from ..topology import Topology


@dataclass(frozen=True)
class BaselineAlgorithm:
    """One verified baseline plus the lattice cost the bounds layer uses."""

    name: str
    algorithm: Algorithm

    def cost(self) -> Tuple[int, int, int]:
        """The ``(steps, rounds, chunks)`` lattice point this baseline occupies."""
        return (
            self.algorithm.num_steps,
            self.algorithm.total_rounds,
            self.algorithm.chunks_per_node,
        )


def _builders(
    collective: str, topology: Topology, root: int
) -> List[Tuple[str, Callable[[], Algorithm]]]:
    from . import (
        nccl_baseline,
        ring_allgather,
        ring_allreduce,
        ring_reduce_scatter,
        single_ring,
        tree_broadcast,
        tree_reduce,
    )

    name = collective.lower()
    if name == "allgather":
        return [
            ("ring", lambda: ring_allgather(topology, single_ring(topology))),
            ("nccl", lambda: nccl_baseline("Allgather", topology)),
        ]
    if name == "allreduce":
        return [
            ("ring", lambda: ring_allreduce(topology, single_ring(topology))),
            ("nccl", lambda: nccl_baseline("Allreduce", topology)),
        ]
    if name == "reducescatter":
        return [
            ("ring", lambda: ring_reduce_scatter(topology, single_ring(topology))),
            ("nccl", lambda: nccl_baseline("Reducescatter", topology)),
        ]
    if name == "broadcast":
        return [
            ("tree", lambda: tree_broadcast(topology, root=root)),
            ("nccl", lambda: nccl_baseline("Broadcast", topology)),
        ]
    if name == "reduce":
        return [
            ("tree", lambda: tree_reduce(topology, root=root)),
            ("nccl", lambda: nccl_baseline("Reduce", topology)),
        ]
    return []


def baseline_suite(
    collective: str, topology: Topology, *, root: int = 0
) -> List[BaselineAlgorithm]:
    """Every baseline that builds *and verifies* for the given instance."""
    suite: List[BaselineAlgorithm] = []
    for name, build in _builders(collective, topology, root):
        try:
            algorithm = build()
            algorithm.verify()
        except Exception:
            continue
        suite.append(BaselineAlgorithm(name=name, algorithm=algorithm))
    return suite
