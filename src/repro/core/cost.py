"""The (alpha, beta) cost model and Pareto-frontier utilities (Sections 2.3, 3.6, 3.7).

A k-synchronous algorithm with ``S`` steps, ``R`` rounds and per-node chunk
count ``C`` applied to an input of ``L`` bytes costs::

    S * alpha + (R / C) * L * beta

``alpha`` captures per-step fixed costs (kernel launch, synchronization)
and ``beta`` the per-byte time of a unit-bandwidth link.  The pair
``(S, R/C)`` therefore fully characterizes an algorithm's cost; Pareto
optimality and dominance are defined on these pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Number = Union[int, float, Fraction]


class CostError(Exception):
    """Raised for invalid cost-model parameters."""


def algorithm_cost(
    steps: int,
    rounds: int,
    chunks: int,
    size_bytes: Number,
    alpha: Number,
    beta: Number,
) -> float:
    """Evaluate ``S * alpha + (R / C) * L * beta``."""
    if steps < 0 or rounds < 0:
        raise CostError("steps and rounds must be non-negative")
    if chunks <= 0:
        raise CostError("chunk count must be positive")
    if not 0 <= size_bytes < math.inf:
        raise CostError(f"input size must be finite and non-negative, got {size_bytes!r}")
    return float(steps) * float(alpha) + (float(rounds) / float(chunks)) * float(size_bytes) * float(beta)


@dataclass(frozen=True, order=True)
class CostPoint:
    """A point in (latency cost, bandwidth cost) space.

    ``latency`` is the step count ``a`` and ``bandwidth`` the ratio ``b = R/C``
    from Section 3.7.  Ordering is lexicographic which is convenient for
    deterministic reporting; dominance is what matters for Pareto analysis.
    """

    latency: int
    bandwidth: Fraction

    def dominates(self, other: "CostPoint") -> bool:
        """True when this point is at least as good in both costs and better in one."""
        return (
            self.latency <= other.latency
            and self.bandwidth <= other.bandwidth
            and (self.latency < other.latency or self.bandwidth < other.bandwidth)
        )


def cost_point(steps: int, rounds: int, chunks: int) -> CostPoint:
    return CostPoint(latency=steps, bandwidth=Fraction(rounds, chunks))


def is_pareto_optimal(point: CostPoint, others: Iterable[CostPoint]) -> bool:
    """Pareto optimality of ``point`` with respect to a set of cost points.

    Follows the paper's definition: for every other algorithm with cost
    ``(a', b')``, ``a == a' ⇒ b' >= b`` and ``b == b' ⇒ a' >= a`` — and no
    algorithm strictly dominates it.
    """
    for other in others:
        if other.dominates(point):
            return False
        if other.latency == point.latency and other.bandwidth < point.bandwidth:
            return False
        if other.bandwidth == point.bandwidth and other.latency < point.latency:
            return False
    return True
