"""SAT / SMT-lite solving substrate (the Z3 substitute).

Public surface:

* :class:`~repro.solver.cnf.CNF` — clause database.
* :class:`~repro.solver.sat.SATSolver` — CDCL SAT solver.
* :func:`~repro.solver.sat.solve_cnf` — one-shot solving helper.
* :class:`~repro.solver.smt.SmtLite` — finite-domain constraint facade used
  by the synthesis encoder (Booleans, bounded integers, cardinality and
  pseudo-Boolean constraints).
* :mod:`~repro.solver.encoders` — cardinality / pseudo-Boolean encoders.
* :class:`~repro.solver.intvar.IntVar` — order-encoded bounded integers.
"""

from .cnf import CNF, CNFError, clause_is_satisfied, lit_neg, lit_sign, lit_var
from .intvar import IntVar, unary_sum_equals
from .sat import SATSolver, SolveResult, SolverStats, luby, solve_cnf
from .smt import CheckOutcome, SmtLite
from . import encoders

__all__ = [
    "CNF",
    "CNFError",
    "CheckOutcome",
    "IntVar",
    "SATSolver",
    "SmtLite",
    "SolveResult",
    "SolverStats",
    "clause_is_satisfied",
    "encoders",
    "lit_neg",
    "lit_sign",
    "lit_var",
    "luby",
    "solve_cnf",
    "unary_sum_equals",
]
