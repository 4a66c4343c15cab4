"""The engine's solver: the in-house CDCL core behind one narrow handle.

The synthesis pipeline only needs a narrow slice of a SAT solver: load a
CNF, solve under assumptions with optional resource limits, read a model.
:class:`CdclHandle` is that slice over :class:`repro.solver.SATSolver`,
the only solver the engine runs, so that a proof sink in that one solver
can certify every UNSAT verdict the engine returns.  ``"cdcl"`` is the
provenance label a solved result carries.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type

from ..solver import CNF, SATSolver, SolveResult


class BackendError(Exception):
    """Raised when a caller names a solver other than ``cdcl``."""


class CdclHandle:
    """One incremental solver instance owning a loaded formula.

    After :meth:`load`, :meth:`solve` may be called many times with
    different assumption sets; learned clauses carry over between calls.
    """

    name = "cdcl"

    @classmethod
    def create(cls) -> "CdclHandle":
        return cls()

    def __init__(self) -> None:
        self._solver = SATSolver()

    def load(self, cnf: CNF) -> bool:
        """Load a formula; returns False if it is trivially UNSAT.

        The solver may keep the formula's clause lists and reorder the
        literals within them (:meth:`CNF.hand_over`): ``cnf`` stays the
        same formula, clause for clause, and another handle may load it.
        """
        return self._solver.add_cnf(cnf)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        return self._solver.solve(
            assumptions, conflict_limit=conflict_limit, time_limit=time_limit
        )

    def model(self) -> Dict[int, bool]:
        return self._solver.model()

    def stats(self) -> Dict[str, float]:
        return self._solver.stats.as_dict()


def get_backend(name: Optional[str] = None) -> Type[CdclHandle]:
    """The solver factory: ``CdclHandle`` for ``None`` or ``"cdcl"``."""
    if name not in (None, CdclHandle.name):
        raise BackendError(
            f"unknown solver backend {name!r}; the only solver is 'cdcl'"
        )
    return CdclHandle
