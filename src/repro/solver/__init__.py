"""SAT solving substrate (the Z3 substitute).

The synthesis encoder writes CNF itself and the CDCL core solves it; the
engine reaches that core through one handle
(:class:`repro.engine.backends.CdclHandle`).

Public surface:

* :class:`~repro.solver.cnf.CNF` — clause database.
* :class:`~repro.solver.sat.SATSolver` — CDCL SAT solver.
* :mod:`~repro.solver.encoders` — cardinality encoders (at-most-one,
  at-most-k, totalizer).
* :class:`~repro.solver.intvar.IntVar` — order-encoded bounded integers,
  and :func:`~repro.solver.intvar.unary_sum_equals` over them.
* :func:`~repro.solver.cnf.clause_is_satisfied` — the tests' model oracle.
"""

from .cnf import CNF, CNFError, clause_is_satisfied
from .intvar import IntVar, unary_sum_equals
from .sat import SATSolver, SolveResult, SolverStats, luby
from . import encoders

__all__ = [
    "CNF",
    "CNFError",
    "IntVar",
    "SATSolver",
    "SolveResult",
    "SolverStats",
    "clause_is_satisfied",
    "encoders",
    "luby",
    "unary_sum_equals",
]
