"""The one sweep loop: what it asks of an executor, and what it reports
whichever executor answers.

``TestExecutorContract`` drives :class:`Dispatcher` with a recording fake
executor, so the loop's side of the interface is pinned without a solver:
pruned, cut and cached candidates never reach the executor, results are
awaited strictly in candidate order and never past the first SAT of a step
count or after ``stop``, and every awaited probe was in the latest hint;
past the deadline it is asked nothing at all.

``test_strategies_report_what_the_inline_executor_reports`` is the
property the refactor rests on: the four strategy names x {cold, warm
cache} x {bounds on, off} x {no limit, a conflict limit} all report the
inline executor's frontier and the inline executor's probe accounting.
"""

import json
import time

import pytest

from repro.core import make_instance, pareto_synthesize
from repro.core.synthesizer import SynthesisResult
from repro.engine import (
    STRATEGIES,
    AlgorithmCache,
    BoundsLedger,
    Dispatcher,
    SweepRequest,
    store_result,
)
from repro.solver import SolveResult
from repro.topology import ring


# ----------------------------------------------------------------------
# The executor contract
# ----------------------------------------------------------------------
class RecordingExecutor:
    """Answers from a verdict table and records everything it is asked."""

    exact = True
    lookahead = 1
    encode_calls = 0

    def __init__(self, verdicts):
        self.verdicts = verdicts
        self.hints = []      # one list of keys per prefetch call
        self.awaited = []    # keys in the order result() was called
        self.closed = 0

    def prefetch(self, probes):
        self.hints.append([probe.key for probe in probes])

    def result(self, probe):
        assert probe.key in self.hints[-1], "awaited a probe that was never hinted"
        self.awaited.append(probe.key)
        return SynthesisResult(
            instance=probe.instance, status=self.verdicts[probe.key]
        )

    def close(self):
        self.closed += 1


SAT, UNSAT = SolveResult.SAT, SolveResult.UNSAT


class TestExecutorContract:
    #: (S, R, C) -> what the fake answers.  Anything absent must never be
    #: awaited (a KeyError would fail the test).
    VERDICTS = {
        (2, 3, 2): UNSAT,
        (2, 3, 1): SAT,
        (3, 3, 2): UNSAT,
        (3, 4, 2): SAT,
    }

    def _run(self, tmp_path, deadline=None):
        topology = ring(4)
        ledger = BoundsLedger("Allgather", topology)
        ledger.add_infeasible(2, 2, 2)  # cuts (S=2, R=2, C>=2)
        cache = AlgorithmCache(tmp_path)

        def request(steps, candidates):
            return SweepRequest(
                collective="Allgather", topology=topology, steps=steps,
                candidates=tuple(candidates), bounds=ledger, deadline=deadline,
            )

        requests = [
            # cut, cut, probe (UNSAT), cached UNSAT, probe (SAT), past the SAT
            request(2, [(2, 3), (2, 2), (3, 2), (2, 1), (3, 1), (4, 1)]),
            # pruned (cost >= 3 once S=2 found 3/1), probe (UNSAT), probe (SAT)
            request(3, [(3, 1), (3, 2), (4, 2), (4, 1)]),
            # hinted as lookahead, never current: stop accepts S=3
            request(4, [(4, 2), (4, 1)]),
        ]
        cached = make_instance("Allgather", topology, 1, 2, 2)  # (S, R, C) = (2, 2, 1)
        assert store_result(cache, SynthesisResult(instance=cached, status=UNSAT))

        executor = RecordingExecutor(self.VERDICTS)
        outcomes = Dispatcher("fake", lambda request: executor).run(
            requests, cache=cache,
            stop=lambda outcome: outcome.first_sat is not None  # a cut one has none
            and outcome.first_sat.instance.steps >= 3,
        )
        return executor, outcomes

    def test_only_live_probes_reach_the_executor_in_order(self, tmp_path):
        executor, outcomes = self._run(tmp_path)
        # Strictly candidate order, truncated at each step count's first SAT,
        # nothing for S=4: stop accepted S=3.
        assert executor.awaited == [(2, 3, 2), (2, 3, 1), (3, 3, 2), (3, 4, 2)]
        assert executor.closed == 1
        assert len(outcomes) == 2

        asked = {key for hint in executor.hints for key in hint} | set(executor.awaited)
        # Cut candidates and the cached one are answered by the loop itself...
        assert not asked & {(2, 2, 3), (2, 2, 2), (2, 2, 1)}
        # ... and what the ledger pruned by the time S=3 became current was
        # neither awaited nor hinted again.
        assert not set(executor.hints[1]) & {(3, 3, 1), (3, 4, 1), (4, 4, 1)}

    def test_hints_cover_the_current_step_count_and_the_lookahead(self, tmp_path):
        executor, _ = self._run(tmp_path)
        first, second = executor.hints
        # S=2 current: its live misses, then S=3's as the ledger saw them then.
        assert first == [
            (2, 3, 2), (2, 3, 1), (2, 4, 1),
            (3, 3, 1), (3, 3, 2), (3, 4, 2), (3, 4, 1),
        ]
        # S=3 current: replanned (cost >= 3 now pruned), plus S=4's live probe.
        assert second == [(3, 3, 2), (3, 4, 2), (4, 4, 2)]

    def test_the_loop_owns_the_accounting(self, tmp_path):
        _, (first, second) = self._run(tmp_path)
        assert [r.provenance for r in first.results] == [
            "cut", "cut", "solved", "solved", "solved",
        ]
        assert [r.cache_hit for r in first.results] == [False, False, False, True, False]
        assert first.stats.as_dict() == {
            "encode_calls": 0, "solver_calls": 2, "cache_hits": 1,
            "candidates_probed": 3, "unknown_retries": 0,
            "probes_pruned": 0, "probes_cut": 2,
        }
        assert second.stats.probes_pruned == 1  # the one before the SAT
        assert second.stats.candidates_probed == 2

    def test_past_the_deadline_the_executor_is_asked_nothing(self, tmp_path):
        executor, outcomes = self._run(tmp_path, deadline=time.monotonic())
        assert executor.hints == [] and executor.awaited == []
        # The loop still answers the cut candidates; the first miss ends the run.
        (outcome,) = outcomes
        assert outcome.deadline_cut
        assert [r.provenance for r in outcome.results] == ["cut", "cut"]
        assert outcome.stats.solver_calls == outcome.stats.candidates_probed == 0
        assert executor.closed == 1


# ----------------------------------------------------------------------
# Every strategy reports what the inline executor reports
# ----------------------------------------------------------------------
#: Allgather on a 6-ring: two frontier points, five candidates pruned once
#: bounds are on, and under ``conflict_limit=2`` budget-exhausted family
#: frames that the loop retries exactly.
INSTANCE = dict(collective="Allgather", k=1, max_steps=5)
COUNTERS = ("candidates_probed", "probes_pruned", "probes_cut")


def _frontier(strategy, cache_state, bounds, conflict_limit, directory):
    cache = AlgorithmCache(directory / strategy)
    kwargs = dict(
        INSTANCE, topology=ring(6), strategy=strategy, max_workers=2,
        bounds=bounds, conflict_limit=conflict_limit, cache=cache,
    )
    if cache_state == "warm":
        pareto_synthesize(**kwargs)
    return pareto_synthesize(**kwargs)


def _frontier_bytes(frontier, *, schedules=True):
    data = frontier.to_dict(include_timing=False)
    if not schedules:
        for point in data["points"]:
            point["algorithm"] = None
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("conflict_limit", [None, 2], ids=["nolimit", "conflicts2"])
@pytest.mark.parametrize("bounds", ["baseline", "off"])
@pytest.mark.parametrize("cache_state", ["cold", "warm"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_report_what_the_inline_executor_reports(
    strategy, cache_state, bounds, conflict_limit, tmp_path
):
    inline = _frontier("serial", cache_state, bounds, conflict_limit, tmp_path / "ref")
    frontier = _frontier(strategy, cache_state, bounds, conflict_limit, tmp_path)
    # The family executor solves frames of a shared formula, so it may decode
    # a different (verified) schedule for the same lattice point; everything
    # else — points, flags, proved, unsat_probes — is byte-identical.  The
    # exact-formula executors match to the last send.
    exact = strategy != "incremental"
    assert _frontier_bytes(frontier, schedules=exact) == _frontier_bytes(
        inline, schedules=exact
    )
    for point in frontier.points:
        point.algorithm.verify()
    for counter in COUNTERS:
        assert frontier.engine_stats[counter] == inline.engine_stats[counter], counter
    if cache_state == "warm":
        assert frontier.engine_stats["cache_hits"] > 0
        if conflict_limit is None:  # UNKNOWN is never cached: those run again
            assert frontier.engine_stats["solver_calls"] == 0


# ----------------------------------------------------------------------
# One deadline per run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_zero_time_limit_starts_no_probe_but_replays_the_cache(strategy, tmp_path):
    kwargs = dict(INSTANCE, topology=ring(6), strategy=strategy, max_workers=2)
    cut = pareto_synthesize(**kwargs, time_limit=0)
    assert cut.engine_stats["solver_calls"] == 0
    assert cut.deadline_cut and cut.points == [] and not cut.exhausted_steps
    assert "time limit" in cut.note

    cache = AlgorithmCache(tmp_path)
    full = pareto_synthesize(**kwargs, cache=cache)
    replayed = pareto_synthesize(**kwargs, cache=cache, time_limit=0)
    assert replayed.engine_stats["solver_calls"] == 0
    assert not replayed.deadline_cut and replayed.note == ""
    assert _frontier_bytes(replayed) == _frontier_bytes(full)
