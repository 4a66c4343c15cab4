"""Tests for the alpha-beta cost model and Pareto utilities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CostError,
    CostPoint,
    algorithm_cost,
    cost_point,
    is_pareto_optimal,
)
from repro.baselines import ring_allgather, single_ring
from repro.topology import ring


def test_algorithm_cost_formula():
    # 7 alpha + 7/6 L beta: the DGX-1 6-ring Allgather (Section 2.4).
    cost = algorithm_cost(steps=7, rounds=7, chunks=6, size_bytes=6_000_000,
                          alpha=5e-6, beta=4e-11)
    assert cost == pytest.approx(7 * 5e-6 + (7 / 6) * 6_000_000 * 4e-11)


def test_cost_validation():
    with pytest.raises(CostError):
        algorithm_cost(-1, 1, 1, 1, 1, 1)
    with pytest.raises(CostError):
        algorithm_cost(1, 1, 0, 1, 1, 1)
    with pytest.raises(CostError):
        algorithm_cost(1, 1, 1, -5, 1, 1)


@pytest.mark.parametrize("size", [-(1 << 20), math.nan, math.inf],
                         ids=["negative", "nan", "inf"])
def test_cost_refuses_a_size_outside_zero_to_infinity(size):
    algorithm = ring_allgather(ring(4), single_ring(ring(4)))
    with pytest.raises(CostError, match="finite and non-negative"):
        algorithm.cost(size)
    with pytest.raises(CostError, match="finite and non-negative"):
        algorithm_cost(1, 1, 1, size, 1, 1)


def test_cost_of_size_zero_is_latency_only():
    algorithm = ring_allgather(ring(4), single_ring(ring(4)))
    assert algorithm.cost(0) == algorithm.num_steps * algorithm.topology.alpha


def test_cost_point_dominance():
    fast = CostPoint(2, Fraction(3, 2))
    slow = CostPoint(3, Fraction(3, 2))
    assert fast.dominates(slow)
    assert not slow.dominates(fast)
    assert not fast.dominates(fast)


def pareto_frontier(points):
    """The non-dominated cost points, as ``pareto_synthesize`` marks them."""
    unique = sorted(set(points))
    return [p for p in unique if is_pareto_optimal(p, [q for q in unique if q != p])]


def test_pareto_frontier_filters_dominated():
    points = [
        cost_point(2, 2, 1),        # (2, 2)
        cost_point(3, 3, 2),        # (3, 1.5)
        cost_point(7, 7, 6),        # (7, 7/6)
        cost_point(7, 14, 6),       # (7, 7/3) dominated by (7, 7/6)
        cost_point(8, 7, 6),        # (8, 7/6) dominated by (7, 7/6)
    ]
    frontier = pareto_frontier(points)
    assert cost_point(7, 14, 6) not in frontier
    assert cost_point(8, 7, 6) not in frontier
    assert len(frontier) == 3


def test_is_pareto_optimal_matches_paper_definition():
    points = [cost_point(2, 2, 1), cost_point(3, 3, 2), cost_point(7, 7, 6)]
    for p in points:
        assert is_pareto_optimal(p, [q for q in points if q != p])
    # Same latency, worse bandwidth: not Pareto-optimal.
    assert not is_pareto_optimal(cost_point(2, 3, 1), points)


@given(
    steps=st.integers(1, 20),
    rounds=st.integers(1, 40),
    chunks=st.integers(1, 48),
    size=st.floats(1, 1e9),
)
def test_cost_monotone_in_size(steps, rounds, chunks, size):
    small = algorithm_cost(steps, rounds, chunks, size, 1e-6, 1e-10)
    large = algorithm_cost(steps, rounds, chunks, size * 2, 1e-6, 1e-10)
    assert large >= small


@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 20), st.integers(1, 10)), min_size=1, max_size=20))
def test_pareto_frontier_is_non_dominated_and_complete(raw):
    points = [cost_point(s, max(r, s), c) for (s, r, c) in raw]
    frontier = pareto_frontier(points)
    # No frontier point dominates another frontier point.
    for a in frontier:
        for b in frontier:
            if a != b:
                assert not a.dominates(b)
    # Every input point is dominated by or equal to some frontier point.
    for p in points:
        assert any(f == p or f.dominates(p) or (f.latency <= p.latency and f.bandwidth <= p.bandwidth) for f in frontier)


def test_latency_optimal_point_wins_small_inputs_and_loses_large_ones():
    # DGX-1 Allgather: (2, 2) is latency-optimal, (7, 7/6) bandwidth-optimal.
    alpha, beta = 5e-6, 4e-11
    for size, cheaper in ((1 << 10, "latency"), (1 << 30, "bandwidth")):
        latency = algorithm_cost(2, 2, 1, size, alpha, beta)
        bandwidth = algorithm_cost(7, 7, 6, size, alpha, beta)
        assert (latency < bandwidth) == (cheaper == "latency")


@given(
    a=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 8)),
    extra_steps=st.integers(0, 4),
    extra_rounds=st.integers(0, 4),
    scale=st.integers(1, 4),
    size=st.integers(0, 1 << 30),
    alpha=st.floats(0, 1e-3),
    beta=st.floats(0, 1e-6),
)
def test_a_dominating_point_is_never_costlier(a, extra_steps, extra_rounds, scale, size,
                                              alpha, beta):
    steps, rounds, chunks = a
    # b is no better in either cost: more steps, and R/C plus extra_rounds/(C*scale).
    b = (steps + extra_steps, rounds * scale + extra_rounds, chunks * scale)
    assert cost_point(*a).dominates(cost_point(*b)) == (extra_steps + extra_rounds > 0)
    assert algorithm_cost(*a, size, alpha, beta) <= algorithm_cost(*b, size, alpha, beta)
