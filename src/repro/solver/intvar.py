"""Order-encoded bounded integer variables.

The SCCL encoding uses small bounded integers: ``time[c, n]`` ranges over
``0 .. S+1`` (where ``S+1`` stands for "the chunk never arrives within the
algorithm") and the per-step round counts ``r_s`` range over ``0 .. R``.

An :class:`IntVar` with domain ``[lo, hi]`` is represented with the order
encoding: Boolean variables ``ge[v]`` for ``v`` in ``lo+1 .. hi`` meaning
``x >= v``, chained by the monotonicity clauses ``ge[v+1] -> ge[v]``.  The
order encoding is the natural fit for the constraints in the paper, which
are all threshold comparisons (``time <= S``, ``time_src < time_dst``,
``time = s``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from . import encoders
from .cnf import CNF


class IntVar:
    """A bounded integer in the order encoding.

    Parameters
    ----------
    cnf:
        Clause database to allocate Boolean variables in.
    lo, hi:
        Inclusive domain bounds.
    true_lit:
        A literal that is constrained to be true in the surrounding
        formula; used to return constant comparisons as real literals so
        that callers never need to special-case trivially true/false
        comparisons.
    name:
        Optional name for debugging / model dumps.
    """

    __slots__ = ("cnf", "lo", "hi", "name", "_true", "_ge")

    def __init__(self, cnf: CNF, lo: int, hi: int, true_lit: int, name: str = "") -> None:
        if lo > hi:
            raise ValueError(f"empty domain [{lo}, {hi}] for IntVar {name!r}")
        self.cnf = cnf
        self.lo = lo
        self.hi = hi
        self.name = name
        self._true = true_lit
        # _ge[v] is the Boolean variable for x >= v, for v in lo+1..hi: one
        # block of fresh variables, chained by x >= v -> x >= v-1.
        block = cnf.new_vars(hi - lo)
        self._ge: Dict[int, int] = dict(zip(range(lo + 1, hi + 1), block))
        if len(block) > 1:
            cnf.add_clauses_fast([[-var, var - 1] for var in block[1:]])

    # ------------------------------------------------------------------
    # Comparison literals
    # ------------------------------------------------------------------
    def ge_lit(self, v: int) -> int:
        """Literal that is true iff ``x >= v``."""
        if v <= self.lo:
            return self._true
        if v > self.hi:
            return -self._true
        return self._ge[v]

    def le_lit(self, v: int) -> int:
        """Literal that is true iff ``x <= v``."""
        return -self.ge_lit(v + 1)

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------
    def value(self, model: Dict[int, bool]) -> int:
        """Decode this variable's value from a SAT model."""
        value = self.lo
        for v in range(self.lo + 1, self.hi + 1):
            if model.get(self._ge[v], False):
                value = v
            else:
                break
        return value

    def booleans(self) -> List[int]:
        """Return the underlying order-encoding Boolean variables."""
        return [self._ge[v] for v in range(self.lo + 1, self.hi + 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntVar({self.name or 'int'}, [{self.lo}..{self.hi}])"


def unary_sum_equals(cnf: CNF, variables: Sequence[IntVar], total: int) -> None:
    """Constrain ``sum(variables) == total`` over order-encoded integers.

    Each variable contributes its order-encoding Booleans (each true Boolean
    adds one above the variable's lower bound), so the sum over all those
    Booleans must equal ``total - sum(lo)``.  Delegates to the cardinality
    encoders.
    """
    offset = sum(v.lo for v in variables)
    residual = total - offset
    bools: List[int] = []
    for var in variables:
        bools.extend(var.booleans())
    if residual < 0 or residual > len(bools):
        # Impossible total.
        fresh = cnf.new_var()
        cnf.add_clause([fresh])
        cnf.add_clause([-fresh])
        return
    encoders.exactly_k(cnf, bools, residual)
