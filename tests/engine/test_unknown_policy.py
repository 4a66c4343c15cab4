"""The deterministic UNKNOWN policy: family-frame budget exhaustion must
not change the frontier the sweep reports.

The incremental strategy probes candidates through shared-prefix family
frames — *larger* formulas than the standalone encodings every other
strategy solves, so a per-probe budget can exhaust on a frame where the
standalone formula would verdict.  The sweep loop retries the exact
standalone formula with the same budget before conceding the lattice
point, restoring cross-strategy frontier agreement under injected
resource limits — and from then on the step count is *budget-bound*: its
remaining probes go straight to the exact formula, so a budget is spent
twice at most once per step count.  A deadline is not a budget: a frame it
cut short is not retried.
"""

import time

import pytest

from repro.core import pareto_synthesize
from repro.core.synthesizer import SynthesisResult
from repro.engine import STRATEGIES, FamilyExecutor, SweepRequest, make_dispatcher
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


def _unknown_family_result(monkeypatch, encode_time=0.0, solve_time=0.0):
    """Make every family-frame probe exhaust its budget (UNKNOWN).

    Returns the list the ``(steps, rounds, chunks)`` of every frame asked
    is appended to.
    """
    asked = []

    def fake_result(self, probe):
        asked.append(probe.key)
        return SynthesisResult(
            instance=probe.instance, status=SolveResult.UNKNOWN,
            encode_time=encode_time, solve_time=solve_time,
        )

    monkeypatch.setattr(FamilyExecutor, "result", fake_result)
    return asked


def _unknown_exact_solve(monkeypatch, encode_time=0.0, solve_time=0.0):
    """Make every exact-formula solve exhaust its budget too."""
    from repro.core import synthesizer

    def fake_synthesize(instance, **kwargs):
        return SynthesisResult(
            instance=instance, status=SolveResult.UNKNOWN,
            encode_time=encode_time, solve_time=solve_time,
        )

    # The sweep loop's exact formula is the uncounted ``_probe``.
    monkeypatch.setattr(synthesizer, "_probe", fake_synthesize)


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
        _unknown_family_result(monkeypatch)
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
        them — and the budget is spent twice once, not once per result."""
        _unknown_family_result(monkeypatch)
        _unknown_exact_solve(monkeypatch)
        outcome = make_dispatcher("incremental").sweep(self.request())
        assert len(outcome.results) == 2
        assert all(r.is_unknown for r in outcome.results)
        assert outcome.stats.unknown_retries == 1
        assert outcome.stats.solver_calls == len(outcome.results) + 1

    def test_a_retried_probe_reports_both_attempts(self, monkeypatch):
        """The exact formula's result carries the frame's burnt budget:
        the phases of a sweep add up to what it cost."""
        _unknown_family_result(monkeypatch, encode_time=1.0, solve_time=2.0)
        _unknown_exact_solve(monkeypatch, encode_time=0.25, solve_time=0.5)
        retried, direct = make_dispatcher("incremental").sweep(self.request()).results
        assert (retried.encode_time, retried.solve_time) == (1.25, 2.5)
        assert (direct.encode_time, direct.solve_time) == (0.25, 0.5)

    def test_a_deciding_retry_keeps_the_frames_time(self, monkeypatch):
        _unknown_family_result(monkeypatch, encode_time=1.0, solve_time=2.0)
        sat = make_dispatcher("incremental").sweep(self.request()).first_sat
        assert sat is not None
        assert sat.encode_time > 1.0 and sat.solve_time > 2.0


class TestBudgetBoundStepCount:
    """After its first UNKNOWN frame a step count asks no frame again."""

    def requests(self):
        topology = ring(4)
        return [
            SweepRequest(
                collective="Allgather", topology=topology, steps=steps,
                candidates=((steps, 1), (steps + 1, 1), (steps + 1, 2)),
            )
            for steps in (3, 4)
        ]

    def test_one_frame_per_budget_bound_step_count(self, monkeypatch):
        """Every formula exhausts: each step count asks its family once,
        retries that probe exactly and sends the rest to the exact formula."""
        asked = _unknown_family_result(monkeypatch)
        _unknown_exact_solve(monkeypatch)
        outcomes = make_dispatcher("incremental").run(self.requests())
        assert asked == [(3, 3, 1), (4, 4, 1)]
        for outcome in outcomes:
            assert len(outcome.results) == 3
            assert outcome.stats.unknown_retries == 1
            assert outcome.stats.solver_calls == 4
            assert outcome.stats.encode_calls == 3  # the fake family encodes nothing

    def test_the_family_answers_until_a_frame_exhausts(self, monkeypatch):
        """Frames that decide are kept (never retried); the first one that
        does not makes the rest of that step count exact, and the next step
        count starts on its family again."""
        real_result = FamilyExecutor.result
        asked = []

        def result(self, probe):
            asked.append(probe.key)
            answer = real_result(self, probe)
            if probe.key == (3, 4, 1):
                answer.status, answer.algorithm = SolveResult.UNKNOWN, None
            return answer

        monkeypatch.setattr(FamilyExecutor, "result", result)
        _unknown_exact_solve(monkeypatch)
        topology = ring(4)
        requests = [
            SweepRequest(
                collective="Allgather", topology=topology, steps=steps,
                candidates=((steps, 2), (steps + 1, 1), (steps + 2, 1)),
                stop_at_first_sat=False,
            )
            for steps in (3, 4)
        ]
        first, second = make_dispatcher("incremental").run(requests)
        assert asked == [(3, 3, 2), (3, 4, 1), (4, 4, 2), (4, 5, 1), (4, 6, 1)]
        assert [r.status for r in first.results] == [
            SolveResult.SAT, SolveResult.UNKNOWN, SolveResult.UNKNOWN,
        ]
        assert (first.stats.unknown_retries, first.stats.solver_calls) == (1, 4)
        assert (second.stats.unknown_retries, second.stats.solver_calls) == (0, 3)

    @pytest.mark.parametrize("strategy", ["parallel", "serial"])
    def test_exact_executors_are_untouched(self, monkeypatch, strategy):
        """An exact executor's UNKNOWN is the reference: nothing is retried."""
        _unknown_exact_solve(monkeypatch)
        outcomes = make_dispatcher(strategy, max_workers=1).run(self.requests())
        for outcome in outcomes:
            assert outcome.stats.unknown_retries == 0
            assert outcome.stats.solver_calls == len(outcome.results) == 3


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

    def test_budget_bound_step_count_reports_the_serial_frontier(self):
        """DGX-1 Broadcast under 100 conflicts: the S=3 frame of (8,3,3)
        exhausts, the retry exhausts, and (7,3,3) and (6,3,3) go straight to
        the exact formula — the frontier ``serial`` reports, ``proved`` flags
        included, for one solver call more."""
        from repro.topology import dgx1

        frontiers = {
            strategy: pareto_synthesize(
                "Broadcast", dgx1(), k=1, max_steps=3, max_chunks=8,
                conflict_limit=100, strategy=strategy,
            )
            for strategy in ("serial", "incremental")
        }
        serial, incremental = frontiers["serial"], frontiers["incremental"]
        assert signatures(incremental) == signatures(serial)
        assert [(*p.signature, p.proved) for p in incremental.points] == [
            (2, 2, 2, True), (6, 3, 3, False),
        ]
        assert incremental.engine_stats["unknown_retries"] == 1
        assert (
            incremental.engine_stats["solver_calls"]
            == serial.engine_stats["solver_calls"] + 1
        )

    def test_a_frame_the_deadline_cut_is_not_retried(self, monkeypatch):
        """The policy is for conflict budgets: a frame that came back
        UNKNOWN because the time limit ran out ends the sweep there, with
        no exact retry, and the frontier says it was cut."""
        asked = []

        def past_the_deadline(self, probe):
            asked.append(probe.key)
            time.sleep(max(0.0, probe.request.deadline - time.monotonic()) + 0.01)
            return SynthesisResult(instance=probe.instance, status=SolveResult.UNKNOWN)

        monkeypatch.setattr(FamilyExecutor, "result", past_the_deadline)
        frontier = pareto_synthesize(
            "Allgather", ring(4), k=1, max_steps=3, time_limit=1.0,
            strategy="incremental", bounds="off",
        )
        assert len(asked) == 1
        assert frontier.engine_stats["unknown_retries"] == 0
        assert frontier.engine_stats["solver_calls"] == 1
        assert frontier.deadline_cut and frontier.points == []
        assert not frontier.exhausted_steps

    def test_incremental_with_dead_family_matches_serial(self, monkeypatch):
        """Extreme injection: every family frame exhausts its budget.  The
        exact-retry fallback must reduce the incremental frontier to the
        serial one."""
        serial = pareto_synthesize("Allgather", ring(4), k=1, max_steps=3,
                                   strategy="serial")
        _unknown_family_result(monkeypatch)
        incremental = pareto_synthesize("Allgather", ring(4), k=1, max_steps=3,
                                        strategy="incremental")
        assert signatures(incremental) == signatures(serial)
