"""CNF encoders for cardinality constraints.

The SCCL synthesis constraints (Section 3.4 of the paper) need three kinds
of non-clausal building blocks:

* *exactly-one* over the possible senders of a chunk (constraint C3),
* *at-most-k* counts of sends on a link per step (constraint C5), and
* linear equalities over small bounded integers (constraint C6, and
  ``R = sum(r_s)``).

This module provides standard encodings of those building blocks:

* pairwise and commander at-most-one,
* the sequential (totalizer-free) at-most-k counter of Sinz (2005),
* a totalizer encoder producing full unary count outputs, which the SCCL
  encoding uses to express ``count <= b * r_s`` with a *variable* ``r_s``.

:func:`at_most_one` and :func:`at_most_k` pick among the named encoders by
input size; the named encoders stay public for the formula digests and the
cardinality ablation, which call them directly.

All functions take a :class:`~repro.solver.cnf.CNF` and mutate it in
place.  The clauses they emit mix caller literals (already allocated in the
formula) with fresh auxiliary variables, so they are normalized by
construction: each encoder builds its clauses in a local list and hands it
over through the one bulk door, :meth:`CNF.add_clauses_fast`, which keeps
the formula's vouched-for count (:meth:`CNF.hand_over`) exact.  Dropping
``add_clause``'s tautology/duplicate scan never changes semantics: a
duplicated or tautological input literal only makes an emitted clause
redundant, not wrong.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .cnf import CNF


class EncodingError(Exception):
    """Raised when an encoder receives inconsistent arguments."""


# ----------------------------------------------------------------------
# At-most-one
# ----------------------------------------------------------------------
def _pairs(lits: Sequence[int]) -> List[List[int]]:
    """The binary clauses ``-a ∨ -b`` of every pair, in input order."""
    negated = [-lit for lit in lits]
    return [[a, b] for i, a in enumerate(negated) for b in negated[i + 1:]]


def at_most_one_pairwise(cnf: CNF, lits: Sequence[int]) -> None:
    """Pairwise (binomial) AMO: O(n^2) binary clauses, no auxiliary variables."""
    cnf.add_clauses_fast(_pairs(lits))


#: Literals per commander group of :func:`at_most_one_commander`.
_COMMANDER_GROUP = 4


def at_most_one_commander(cnf: CNF, lits: Sequence[int]) -> None:
    """Commander-variable AMO encoding.

    Splits the literals into groups of four, adds a commander variable per
    group, and recursively constrains the commanders.  Uses O(n) clauses
    and O(n / 4) auxiliary variables.
    """
    lits = list(lits)
    if len(lits) <= _COMMANDER_GROUP + 1:
        at_most_one_pairwise(cnf, lits)
        return
    clauses: List[List[int]] = []
    commanders: List[int] = []
    for start in range(0, len(lits), _COMMANDER_GROUP):
        group = lits[start : start + _COMMANDER_GROUP]
        commander = cnf.new_var()
        commanders.append(commander)
        # commander is true if any literal in the group is true
        clauses.extend([-lit, commander] for lit in group)
        # at most one within the group
        clauses.extend(_pairs(group))
    cnf.add_clauses_fast(clauses)
    at_most_one_commander(cnf, commanders)


def at_most_one(cnf: CNF, lits: Sequence[int]) -> None:
    """AMO: pairwise for up to six literals, commander above."""
    lits = list(lits)
    if len(lits) <= 1:
        return
    if len(lits) <= 6:
        at_most_one_pairwise(cnf, lits)
    else:
        at_most_one_commander(cnf, lits)


# ----------------------------------------------------------------------
# At-most-k via sequential counter (Sinz encoding)
# ----------------------------------------------------------------------
def at_most_k_sequential(cnf: CNF, lits: Sequence[int], k: int) -> None:
    """Sinz sequential counter enforcing ``sum(lits) <= k``.

    Uses ``n * k`` auxiliary variables and ``O(n * k)`` clauses.
    """
    lits = list(lits)
    n = len(lits)
    if k < 0:
        raise EncodingError("at_most_k with negative bound")
    if k == 0:
        for lit in lits:
            cnf.add_clause([-lit])
        return
    if n <= k:
        return
    # s[i][j]: among lits[0..i] at least j+1 are true (j in 0..k-1)
    block = cnf.new_vars(n * k)
    s = [block[i * k : (i + 1) * k] for i in range(n)]
    clauses = [[-lits[0], s[0][0]]]
    clauses.extend([-var] for var in s[0][1:])
    emit = clauses.append
    for i in range(1, n):
        not_lit, row, prev = -lits[i], s[i], s[i - 1]
        emit([not_lit, row[0]])
        emit([-prev[0], row[0]])
        for j in range(1, k):
            emit([not_lit, -prev[j - 1], row[j]])
            emit([-prev[j], row[j]])
        emit([not_lit, -prev[k - 1]])
    cnf.add_clauses_fast(clauses)


def at_most_k(cnf: CNF, lits: Sequence[int], k: int) -> None:
    """``sum(lits) <= k``: :func:`at_most_one` for ``k == 1``, else sequential."""
    lits = list(lits)
    if k >= len(lits):
        return
    if k == 1:
        at_most_one(cnf, lits)
    else:
        at_most_k_sequential(cnf, lits, k)


def at_least_k(cnf: CNF, lits: Sequence[int], k: int) -> None:
    """``sum(lits) >= k`` via at-most on the negations."""
    lits = list(lits)
    if k <= 0:
        return
    if k > len(lits):
        # Unsatisfiable; add an empty-equivalent pair of clauses on a fresh var.
        v = cnf.new_var()
        cnf.add_clause([v])
        cnf.add_clause([-v])
        return
    at_most_k(cnf, [-lit for lit in lits], len(lits) - k)


def exactly_k(cnf: CNF, lits: Sequence[int], k: int) -> None:
    """``sum(lits) == k``."""
    at_most_k(cnf, lits, k)
    at_least_k(cnf, lits, k)


# ----------------------------------------------------------------------
# Totalizer: full unary output counts
# ----------------------------------------------------------------------
def totalizer(cnf: CNF, lits: Sequence[int], bound: Optional[int] = None) -> List[int]:
    """Build a totalizer over ``lits`` and return its unary outputs.

    The returned list ``out`` satisfies ``out[i]`` is true iff at least
    ``i + 1`` of the input literals are true (for ``i < bound``).  Counting
    is truncated at ``bound`` outputs (defaults to ``len(lits)``), which is
    what the SCCL bandwidth constraint needs: it only ever compares the
    count against thresholds up to ``b * R``.

    Only the "if at least i+1 inputs then out[i]" direction is encoded,
    which is sufficient (and standard) for upper-bound constraints where
    the outputs appear negatively.
    """
    lits = list(lits)
    if bound is None:
        bound = len(lits)
    bound = max(0, min(bound, len(lits)))
    if bound == 0:
        return []
    if len(lits) == 1:
        return lits  # a single input is its own count
    clauses: List[List[int]] = []
    emit = clauses.append

    def build(sub: List[int]) -> List[int]:
        mid = len(sub) // 2
        left = sub[:mid] if mid == 1 else build(sub[:mid])
        right = sub[mid:] if len(sub) - mid == 1 else build(sub[mid:])
        width = min(bound, len(left) + len(right))
        outputs = cnf.new_vars(width)
        # sum_left >= a and sum_right >= b implies sum >= a + b, for
        # 0 < a + b <= width (a = 0 first, then b = 0 before b > 0)
        not_right = [-lit for lit in right[:width]]
        for b, not_r in enumerate(not_right):
            emit([outputs[b], not_r])
        for a, lit in enumerate(left[:width]):
            not_l = -lit
            emit([outputs[a], not_l])
            for b, not_r in enumerate(not_right[: width - a - 1]):
                emit([outputs[a + b + 1], not_l, not_r])
        return outputs

    outputs = build(lits)
    cnf.add_clauses_fast(clauses)
    return outputs
