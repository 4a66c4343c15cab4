"""The (alpha, beta) cost model and Pareto-frontier utilities (Sections 2.3, 3.6, 3.7).

A k-synchronous algorithm with ``S`` steps, ``R`` rounds and per-node chunk
count ``C`` applied to an input of ``L`` bytes costs::

    S * alpha + (R / C) * L * beta

``alpha`` captures per-step fixed costs (kernel launch, synchronization)
and ``beta`` the per-byte time of a unit-bandwidth link.  The pair
``(S, R/C)`` therefore fully characterizes an algorithm's cost; Pareto
optimality, dominance, and latency/bandwidth crossover points are all
defined on these pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

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

    def evaluate(self, size_bytes: Number, alpha: Number, beta: Number) -> float:
        return float(self.latency) * float(alpha) + float(self.bandwidth) * float(size_bytes) * float(beta)

    def dominates(self, other: "CostPoint") -> bool:
        """True when this point is at least as good in both costs and better in one."""
        return (
            self.latency <= other.latency
            and self.bandwidth <= other.bandwidth
            and (self.latency < other.latency or self.bandwidth < other.bandwidth)
        )


def cost_point(steps: int, rounds: int, chunks: int) -> CostPoint:
    return CostPoint(latency=steps, bandwidth=Fraction(rounds, chunks))


def pareto_frontier(points: Iterable[CostPoint]) -> List[CostPoint]:
    """Return the non-dominated subset, sorted by latency then bandwidth.

    Duplicate cost points are collapsed.
    """
    unique = sorted(set(points))
    frontier: List[CostPoint] = []
    for point in unique:
        if any(other.dominates(point) for other in unique if other != point):
            continue
        frontier.append(point)
    return frontier


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


def crossover_size(
    a: CostPoint, b: CostPoint, alpha: Number, beta: Number
) -> Optional[float]:
    """Input size (bytes) at which algorithms ``a`` and ``b`` cost the same.

    Returns ``None`` when one algorithm is never slower than the other
    (parallel cost lines or dominance).  Below the returned size the
    lower-latency algorithm wins; above it the lower-bandwidth one does.
    This is what lets SCCL "automatically switch between multiple
    implementations based on the input size" (Section 5.5).
    """
    latency_diff = (a.latency - b.latency) * float(alpha)
    bandwidth_diff = float(b.bandwidth - a.bandwidth) * float(beta)
    if bandwidth_diff == 0:
        return None
    size = latency_diff / bandwidth_diff
    return size if size > 0 else None


def best_algorithm_for_size(
    points: Sequence[CostPoint], size_bytes: Number, alpha: Number, beta: Number
) -> int:
    """Index of the cheapest cost point for the given input size."""
    if not points:
        raise CostError("no cost points given")
    costs = [p.evaluate(size_bytes, alpha, beta) for p in points]
    return min(range(len(points)), key=lambda i: costs[i])


def speedup(baseline_cost: float, candidate_cost: float) -> float:
    """Baseline time over candidate time (``> 1`` means the candidate is faster)."""
    if candidate_cost <= 0:
        raise CostError("candidate cost must be positive")
    return baseline_cost / candidate_cost
