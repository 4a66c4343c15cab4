"""The deterministic UNKNOWN policy: family-frame budget exhaustion must
not change the frontier the sweep reports.

The incremental strategy probes candidates through shared-prefix family
frames — *larger* formulas than the standalone encodings every other
strategy solves, so a per-probe budget can exhaust on a frame where the
standalone formula would verdict.  The sweep loop retries the exact
standalone formula with the same budget before conceding the lattice
point, restoring cross-strategy frontier agreement under injected
resource limits.
"""

import pytest

from repro.core import make_instance, pareto_synthesize
from repro.core.synthesizer import SynthesisResult
from repro.engine import STRATEGIES, SweepRequest, make_dispatcher
from repro.engine.session import SessionFamily
from repro.solver.sat import SolveResult
from repro.topology import line, ring


def signatures(frontier):
    return [
        (
            p.status.value,
            p.signature,
            p.latency_optimal,
            p.bandwidth_optimal,
            p.pareto_optimal,
            p.proved,
        )
        for p in frontier.points
    ]


def _unknown_family_solve(monkeypatch):
    """Make every family-frame probe exhaust its budget (UNKNOWN)."""

    def fake_solve(self, steps, chunks, rounds, **kwargs):
        instance = make_instance(
            self.collective, self.topology, chunks, steps, rounds, root=self.root
        )
        return SynthesisResult(
            instance=instance, status=SolveResult.UNKNOWN, backend=self.backend_name
        )

    monkeypatch.setattr(SessionFamily, "solve", fake_solve)


class TestExactRetry:
    def request(self, **kwargs):
        return SweepRequest(
            collective="Allgather", topology=ring(4), steps=3,
            candidates=((3, 1), (4, 1)), **kwargs,
        )

    def test_unknown_frame_is_retried_exactly(self, monkeypatch):
        """A family frame that exhausts its budget must not concede the
        point: the exact standalone formula is retried and its verdict
        (here SAT) is what the sweep reports."""
        _unknown_family_solve(monkeypatch)
        outcome = make_dispatcher("incremental").sweep(self.request())
        assert outcome.first_sat is not None
        assert outcome.stats.unknown_retries >= 1

    def test_sound_verdicts_are_never_retried(self):
        """SAT/UNSAT family answers are sound; no retry runs for them."""
        outcome = make_dispatcher("incremental").sweep(self.request())
        assert outcome.first_sat is not None
        assert outcome.stats.unknown_retries == 0

    def test_retry_that_also_exhausts_concedes(self, monkeypatch):
        """When the standalone formula exhausts the budget too, the point
        is honestly UNKNOWN — the retry changes verdicts, never invents
        them."""
        from repro.core import synthesizer

        _unknown_family_solve(monkeypatch)

        def fake_synthesize(instance, **kwargs):
            return SynthesisResult(instance=instance, status=SolveResult.UNKNOWN)

        monkeypatch.setattr(synthesizer, "synthesize", fake_synthesize)
        outcome = make_dispatcher("incremental").sweep(self.request())
        assert all(r.is_unknown for r in outcome.results)
        assert outcome.stats.unknown_retries == len(outcome.results)


class TestStrategyAgreementUnderLimits:
    """Satellite: all four strategies report the same frontier when every
    probe carries an injected per-probe resource limit."""

    @pytest.mark.parametrize(
        "collective,topology,k,max_steps",
        [("Allgather", ring(4), 1, 3), ("Gather", line(3), 0, 4)],
        ids=["allgather-ring4", "gather-line3"],
    )
    def test_frontiers_agree_under_conflict_limits(
        self, collective, topology, k, max_steps
    ):
        # cdcl conflict budgets are deterministic, so each strategy's
        # verdicts are reproducible; the policy makes them *agree*.
        frontiers = {
            strategy: pareto_synthesize(
                collective, topology, k=k, max_steps=max_steps,
                strategy=strategy, max_workers=2, conflict_limit=10_000,
            )
            for strategy in STRATEGIES
        }
        serial = signatures(frontiers["serial"])
        for strategy in STRATEGIES[1:]:
            assert signatures(frontiers[strategy]) == serial, (
                f"{strategy} frontier diverged from serial under conflict limits"
            )

    def test_incremental_with_dead_family_matches_serial(self, monkeypatch):
        """Extreme injection: every family frame exhausts its budget.  The
        exact-retry fallback must reduce the incremental frontier to the
        serial one."""
        serial = pareto_synthesize("Allgather", ring(4), k=1, max_steps=3,
                                   strategy="serial")
        _unknown_family_solve(monkeypatch)
        incremental = pareto_synthesize("Allgather", ring(4), k=1, max_steps=3,
                                        strategy="incremental")
        assert signatures(incremental) == signatures(serial)
