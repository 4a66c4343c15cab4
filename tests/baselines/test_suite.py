"""Tests for the baseline suite feeding bound-seeded synthesis.

The over-prune guard for the bounds layer is structural: every point the
ledger is seeded with must come from an algorithm that *verifies* on its
topology, so an infeasible "bound" can never enter the lattice.  These
tests pin that contract for every collective/topology pair the property
tests and benchmarks sweep.
"""

from fractions import Fraction

import pytest

from repro.baselines import BaselineAlgorithm, BaselineEntry, baseline_suite, nccl_table3
from repro.topology import dgx1, line, ring


SUITE_INSTANCES = [
    ("Allgather", dgx1()),
    ("Allgather", ring(4)),
    ("Allreduce", ring(4)),
    ("Reducescatter", ring(4)),
    ("Broadcast", ring(4)),
    ("Reduce", ring(4)),
    ("Broadcast", dgx1()),
]


class TestBaselineSuite:
    @pytest.mark.parametrize(
        "collective,topology", SUITE_INSTANCES,
        ids=[f"{c}-{t.name}" for c, t in SUITE_INSTANCES],
    )
    def test_every_suite_member_verifies(self, collective, topology):
        suite = baseline_suite(collective, topology)
        assert suite, f"no baseline applies to {collective} on {topology.name}"
        for baseline in suite:
            # verify() raises on any semantic violation; re-check here so a
            # future builder change cannot silently ship unverified bounds.
            baseline.algorithm.verify()

    @pytest.mark.parametrize(
        "collective,topology", SUITE_INSTANCES,
        ids=[f"{c}-{t.name}" for c, t in SUITE_INSTANCES],
    )
    def test_cost_matches_algorithm_accessors(self, collective, topology):
        for baseline in baseline_suite(collective, topology):
            steps, rounds, chunks = baseline.cost()
            assert steps == baseline.algorithm.num_steps
            assert rounds == baseline.algorithm.total_rounds
            assert chunks == baseline.algorithm.chunks_per_node
            assert steps >= 1 and rounds >= steps and chunks >= 1
            assert baseline.algorithm.bandwidth_cost == Fraction(rounds, chunks)

    def test_dgx1_allgather_includes_nccl_bound(self):
        suite = baseline_suite("Allgather", dgx1())
        by_name = {b.name: b for b in suite}
        assert "nccl" in by_name
        # Table 3: (C, S, R) = (6, 7, 7) -> lattice cost (7, 7, 6).
        assert by_name["nccl"].cost() == (7, 7, 6)
        assert by_name["nccl"].algorithm.bandwidth_cost == Fraction(7, 6)

    def test_ring4_allgather_ring_bound(self):
        suite = baseline_suite("Allgather", ring(4))
        by_name = {b.name: b for b in suite}
        assert "ring" in by_name
        # ring(4) is bidirectional, so single_ring finds two logical rings:
        # (C, S, R) = (2, 3, 3), lattice cost (3, 3, 2).
        assert by_name["ring"].cost() == (3, 3, 2)

    def test_inapplicable_builders_are_skipped(self):
        # line(3) has no Hamiltonian cycle, so the ring builder must be
        # skipped without failing the suite; NCCL's tables only model the
        # DGX-1 fabric, so it is skipped too.
        assert baseline_suite("Allgather", line(3)) == []
        # Gather has no hand-written baseline at all.
        assert baseline_suite("Gather", ring(4)) == []

    def test_wrapper_is_immutable(self):
        suite = baseline_suite("Allgather", ring(4))
        with pytest.raises(AttributeError):
            suite[0].name = "other"


class TestBaselineEntryCost:
    def test_table3_entries_expose_lattice_cost(self):
        for entry in nccl_table3():
            assert entry.cost() == (entry.steps, entry.rounds, entry.chunks)

    def test_entry_cost_order(self):
        entry = BaselineEntry("Allgather/Reducescatter", 6, 7, 7)
        assert entry.cost() == (7, 7, 6)


class TestBaselineAlgorithmWrapper:
    def test_cost_reflects_wrapped_algorithm(self):
        suite = baseline_suite("Broadcast", ring(4))
        assert suite
        tree = next(b for b in suite if b.name == "tree")
        assert isinstance(tree, BaselineAlgorithm)
        steps, rounds, chunks = tree.cost()
        assert (chunks, steps, rounds) == tree.algorithm.signature()
