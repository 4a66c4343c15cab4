"""CNF formula representation.

This module provides the low-level clause database used by the CDCL SAT
solver in :mod:`repro.solver.sat`.  Variables are positive integers
``1..n`` and a literal is either ``v`` (positive occurrence) or ``-v``
(negated occurrence).

The solver-facing classes are intentionally small: a :class:`CNF` is just a
growable list of clauses plus a variable counter, with helpers for creating
fresh variables.  All higher level constructs (cardinality constraints,
bounded integers) are compiled down to this representation by
:mod:`repro.solver.encoders` and :mod:`repro.solver.intvar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


class CNFError(Exception):
    """Raised for malformed clauses or literals."""


@dataclass
class CNF:
    """A growable CNF formula.

    Attributes
    ----------
    num_vars:
        Highest variable index allocated so far.
    clauses:
        List of clauses; each clause is a list of non-zero integer literals.
    """

    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)
    # Clauses that entered through add_clause / add_clause_fast, and how many
    # leading clauses a solver already holds (see hand_over).
    _vouched: int = field(default=0, init=False, repr=False, compare=False)
    _handed: int = field(default=0, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables and return them as a list."""
        if count < 0:
            raise CNFError(f"cannot allocate a negative number of variables: {count}")
        start = self.num_vars + 1
        self.num_vars += count
        return list(range(start, self.num_vars + 1))

    def ensure_var(self, var: int) -> None:
        """Make sure ``var`` is within the allocated variable range."""
        if var <= 0:
            raise CNFError(f"variables must be positive, got {var}")
        if var > self.num_vars:
            self.num_vars = var

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause given as an iterable of literals.

        Duplicate literals are removed; tautological clauses (containing both
        ``v`` and ``-v``) are silently dropped since they are always
        satisfied.
        """
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if lit == 0:
                raise CNFError("literal 0 is not allowed in a clause")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
            self.ensure_var(abs(lit))
        self.clauses.append(clause)
        self._vouched += 1

    def add_clause_fast(self, lits: List[int]) -> None:
        """Append a pre-normalized clause, skipping the per-literal scans.

        The caller guarantees that every literal's variable is already
        allocated in this formula, that no variable occurs twice and that
        the clause is worth keeping as given — no tautology check, no
        duplicate removal, no ``ensure_var``; the solver's loader relies on
        the same promise (:meth:`hand_over`).
        This is the hot path for machine-generated clauses (the synthesis
        encoder and the cardinality encoders), whose clauses are built from
        freshly allocated variables and are normalized by construction;
        :meth:`add_clause` remains the safe door for everything else
        (hand-written constraints, tests).  The list is stored
        directly and a solver may reorder it, so callers must not mutate or
        rely on its literal order afterwards.
        """
        self.clauses.append(lits)
        self._vouched += 1

    def add_clauses_fast(self, batch: List[List[int]]) -> None:
        """:meth:`add_clause_fast` for a list of clauses, in order.

        The bulk door of the encoders: they build a constraint's clauses in
        a local list and hand it over once, under the same promise for
        every clause in it.
        """
        self.clauses.extend(batch)
        self._vouched += len(batch)

    def hand_over(self) -> int:
        """Hand the clause lists to a loader; returns where its share starts.

        Clauses from the returned index on are vouched for — distinct
        variables, all allocated: :meth:`add_clause` normalized them or the
        caller of :meth:`add_clause_fast` promised — and no loader holds
        them yet, so this one may keep the lists themselves (a solver
        reorders the literals of a list, never changes them).  Clauses
        before it must be checked and copied.  A ``clauses`` list edited
        from outside vouches for nothing.
        """
        count = len(self.clauses)
        start = self._handed if self._vouched == count else count
        self._handed = count
        return start

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def clause_is_satisfied(clause: Sequence[int], assignment: dict) -> bool:
    """Check a clause against a ``{var: bool}`` assignment.

    Unassigned variables count as not satisfying the clause.  The tests'
    oracle for the models the solver returns.
    """
    for lit in clause:
        value = assignment.get(abs(lit))
        if value is None:
            continue
        if value == (lit > 0):
            return True
    return False
