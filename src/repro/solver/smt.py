"""A small SMT-style facade over the SAT solver.

:class:`SmtLite` is the interface the synthesis encoder programs against.
It plays the role Z3 plays in the paper: the encoder creates Boolean and
bounded-integer variables, asserts clauses and cardinality / pseudo-Boolean
constraints, calls :meth:`SmtLite.check`, and reads values back from the
model.  Everything is compiled eagerly to CNF and discharged to the CDCL
solver in :mod:`repro.solver.sat`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from . import encoders
from .cnf import CNF
from .intvar import IntVar
from .sat import SATSolver, SolveResult


@dataclass
class CheckOutcome:
    """Result of a :meth:`SmtLite.check` call."""

    result: SolveResult
    model: Optional[Dict[int, bool]]
    encode_time: float
    solve_time: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.result is SolveResult.SAT

    @property
    def is_unsat(self) -> bool:
        return self.result is SolveResult.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.result is SolveResult.UNKNOWN

    @property
    def total_time(self) -> float:
        return self.encode_time + self.solve_time


class SmtLite:
    """Finite-domain constraint context compiled to CNF.

    The API mirrors the handful of Z3 features the SCCL encoding needs:
    Boolean variables, bounded integers, implications, cardinality sums and
    pseudo-Boolean comparisons.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.cnf = CNF()
        self._creation_time = time.monotonic()
        self._encode_time_accum = 0.0
        # A dedicated always-true variable lets integer comparisons against
        # domain bounds return honest literals.
        self._true = self.cnf.new_var()
        self.cnf.add_clause([self._true])
        self._int_vars: List[IntVar] = []

    # ------------------------------------------------------------------
    # Variable creation
    # ------------------------------------------------------------------
    @property
    def true_lit(self) -> int:
        """A literal constrained to be true."""
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    def new_bool(self, name: str = "") -> int:
        """Create a fresh Boolean variable; returns its positive literal.

        ``name`` labels the variable for whoever reads a hand-written
        formula; nothing stores it.
        """
        return self.cnf.new_var()

    def new_int(self, lo: int, hi: int, name: str = "") -> IntVar:
        """Create an order-encoded integer with inclusive domain ``[lo, hi]``."""
        iv = IntVar(self.cnf, lo, hi, self._true, name=name)
        self._int_vars.append(iv)
        return iv

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_clause(self, lits: Iterable[int]) -> None:
        self.cnf.add_clause(lits)

    def add_clause_fast(self, lits: List[int]) -> None:
        """Pre-normalized clause fast path (see :meth:`CNF.add_clause_fast`)."""
        self.cnf.add_clause_fast(lits)

    def add_unit(self, lit: int) -> None:
        self.cnf.add_clause([lit])

    def add_implies(self, antecedents: Sequence[int], consequent: int) -> None:
        """``and(antecedents) -> consequent``."""
        self.cnf.add_clause([-a for a in antecedents] + [consequent])

    def add_iff(self, a: int, b: int) -> None:
        self.cnf.add_clause([-a, b])
        self.cnf.add_clause([a, -b])

    def at_most_one(self, lits: Sequence[int], method: str = "auto") -> None:
        encoders.at_most_one(self.cnf, lits, method=method)

    def exactly_one(self, lits: Sequence[int], method: str = "auto") -> None:
        encoders.exactly_one(self.cnf, lits, method=method)

    def at_most_k(self, lits: Sequence[int], k: int, method: str = "auto") -> None:
        encoders.at_most_k(self.cnf, lits, k, method=method)

    def at_least_k(self, lits: Sequence[int], k: int) -> None:
        encoders.at_least_k(self.cnf, lits, k)

    def exactly_k(self, lits: Sequence[int], k: int) -> None:
        encoders.exactly_k(self.cnf, lits, k)

    def totalizer(self, lits: Sequence[int], bound: Optional[int] = None) -> List[int]:
        return encoders.totalizer(self.cnf, lits, bound=bound)

    def pseudo_boolean_leq(
        self, lits: Sequence[int], weights: Sequence[int], bound: int
    ) -> None:
        encoders.pseudo_boolean_leq(self.cnf, lits, weights, bound)

    def pseudo_boolean_eq(
        self, lits: Sequence[int], weights: Sequence[int], bound: int
    ) -> None:
        encoders.pseudo_boolean_eq(self.cnf, lits, weights, bound)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def check(
        self,
        *,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> CheckOutcome:
        """Discharge the accumulated constraints to the CDCL solver."""
        encode_time = time.monotonic() - self._creation_time - self._encode_time_accum
        self._encode_time_accum += encode_time
        solver = SATSolver()
        start = time.monotonic()
        ok = solver.add_cnf(self.cnf)
        if not ok:
            solve_time = time.monotonic() - start
            return CheckOutcome(SolveResult.UNSAT, None, encode_time, solve_time, solver.stats.as_dict())
        result = solver.solve(
            assumptions, conflict_limit=conflict_limit, time_limit=time_limit
        )
        solve_time = time.monotonic() - start
        model = solver.model() if result is SolveResult.SAT else None
        return CheckOutcome(result, model, encode_time, solve_time, solver.stats.as_dict())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return self.cnf.stats()

    @staticmethod
    def bool_value(model: Dict[int, bool], lit: int) -> bool:
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    @staticmethod
    def int_value(model: Dict[int, bool], var: IntVar) -> int:
        return var.value(model)
