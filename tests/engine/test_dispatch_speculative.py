"""Frontier determinism across every sweep strategy, and the pool
executor's cross-S lookahead semantics.

The acceptance criterion for the speculative strategy is that speculation
is *observable only in wall-clock*: the committed frontier — statuses,
signatures, decoded schedules, provenance — is byte-identical to the
serial loop's, on every topology, including when the stop predicate
cancels sweeps mid-flight.  The incremental (shared-prefix) strategy
solves different formulas, so its decoded schedules may legitimately
differ; for it the property weakens to identical signatures, statuses,
optimality labels and provenance.
"""

import json
from dataclasses import replace

import pytest

from repro.core import pareto_synthesize
from repro.engine import STRATEGIES, DispatchError, SweepRequest, make_dispatcher
from repro.topology import fully_connected, line, ring, star


def frontier_bytes(frontier) -> bytes:
    return json.dumps(frontier.to_dict(include_timing=False), sort_keys=True).encode()


def provenance(frontier):
    return [(p.backend, p.cache_hit, p.provenance_label()) for p in frontier.points]


def outcome_fingerprint(outcome):
    return [
        (
            r.status.value,
            r.instance.chunks_per_node,
            r.instance.steps,
            r.instance.rounds,
            None if r.algorithm is None else r.algorithm.to_dict(),
        )
        for r in outcome.results
    ]


#: The property-test grid: every topology family the paper sweeps at test
#: scale, with at least one rooted, one all-to-all and one combining case.
CASES = [
    ("Allgather", ring(4), 0, 4),
    ("Allgather", ring(4), 1, 3),
    ("Gather", line(3), 0, 4),
    ("Broadcast", star(5), 0, 3),
    ("Alltoall", fully_connected(3), 0, 3),
    ("Allreduce", ring(4), 0, 3),
]
CASE_IDS = [f"{c}-{t.name}-k{k}" for c, t, k, _ in CASES]


class TestFrontierDeterminismProperty:
    """Satellite: serial / incremental / parallel / speculative agreement."""

    @pytest.mark.parametrize("collective,topology,k,max_steps", CASES, ids=CASE_IDS)
    def test_all_strategies_agree(self, collective, topology, k, max_steps):
        frontiers = {
            strategy: pareto_synthesize(
                collective, topology, k=k, max_steps=max_steps,
                strategy=strategy, max_workers=2,
            )
            for strategy in ("serial", "incremental", "parallel", "speculative")
        }
        serial = frontiers["serial"]
        # Replay-exact strategies: byte-identical frontiers (schedules and
        # all) and identical provenance.
        for strategy in ("parallel", "speculative"):
            assert frontier_bytes(frontiers[strategy]) == frontier_bytes(serial), (
                f"{strategy} frontier diverged from serial"
            )
            assert provenance(frontiers[strategy]) == provenance(serial)
            assert frontiers[strategy].exhausted_steps == serial.exhausted_steps
        # The shared-prefix strategy probes one budget formula under
        # assumptions: satisfiability (hence the frontier's shape) is
        # identical, the concrete schedule may differ.
        incremental = frontiers["incremental"]
        assert [p.signature for p in incremental.points] == [
            p.signature for p in serial.points
        ]
        assert [p.status for p in incremental.points] == [
            p.status for p in serial.points
        ]
        assert [p.optimality_label() for p in incremental.points] == [
            p.optimality_label() for p in serial.points
        ]
        assert provenance(incremental) == provenance(serial)
        assert incremental.exhausted_steps == serial.exhausted_steps
        for point in incremental.points:
            point.algorithm.verify()

    def test_speculative_agrees_on_warm_cache(self, tmp_path):
        from repro.engine import AlgorithmCache

        serial_cache = AlgorithmCache(tmp_path / "serial")
        spec_cache = AlgorithmCache(tmp_path / "spec")
        for cache, strategy in ((serial_cache, "serial"), (spec_cache, "speculative")):
            cold = pareto_synthesize(
                "Allgather", ring(4), k=0, max_steps=4,
                strategy=strategy, max_workers=2, cache=cache,
            )
            warm = pareto_synthesize(
                "Allgather", ring(4), k=0, max_steps=4,
                strategy=strategy, max_workers=2, cache=cache,
            )
            assert frontier_bytes(cold) == frontier_bytes(warm)
            assert warm.engine_stats["cache_hits"] > 0
        # ... and across strategies the persisted outcomes agree too.
        serial_warm = pareto_synthesize(
            "Allgather", ring(4), k=0, max_steps=4, strategy="serial",
            cache=serial_cache,
        )
        spec_warm = pareto_synthesize(
            "Allgather", ring(4), k=0, max_steps=4, strategy="speculative",
            max_workers=2, cache=spec_cache,
        )
        assert frontier_bytes(serial_warm) == frontier_bytes(spec_warm)


class TestSweepManyPipeline:
    def _requests(self, topology, step_counts, candidates_for):
        return [
            SweepRequest(
                collective="Allgather",
                topology=topology,
                steps=steps,
                candidates=tuple(candidates_for(steps)),
            )
            for steps in step_counts
        ]

    def test_cancellation_mid_sweep(self):
        """A stop hit on an early sweep cancels the speculative tail, and
        the committed prefix is byte-identical to the serial loop."""
        topology = ring(4)
        requests = self._requests(
            topology, (2, 3, 4, 5),
            lambda steps: [(steps, 1), (steps + 1, 1)],
        )

        def stop(outcome):
            # Accept the first SAT at S >= 3, so the pipeline must commit
            # exactly two sweeps (S=2 is SAT too, but rejected) and cancel
            # the speculative tail.
            first_sat = outcome.first_sat
            return first_sat is not None and first_sat.instance.steps >= 3

        spec = make_dispatcher("speculative", max_workers=2)
        outcomes = spec.run(requests, stop=stop)
        # Only the committed prefix comes back; the tail never ran.
        assert len(outcomes) == 2
        serial = make_dispatcher("serial")
        for request, outcome in zip(requests, outcomes):
            assert outcome_fingerprint(outcome) == outcome_fingerprint(
                serial.sweep(request)
            )

    def test_lookahead_zero_still_correct(self):
        topology = ring(4)
        requests = self._requests(
            topology, (2, 3), lambda steps: [(steps, 1), (steps + 1, 1)]
        )
        # The parallel strategy is the same pool with no lookahead.
        outcomes = make_dispatcher("parallel", max_workers=2).run(requests)
        serial = make_dispatcher("serial")
        assert len(outcomes) == len(requests)
        for request, outcome in zip(requests, outcomes):
            assert outcome_fingerprint(outcome) == outcome_fingerprint(
                serial.sweep(request)
            )

    def test_mixed_requests_rejected(self):
        a = SweepRequest("Allgather", ring(4), steps=2, candidates=((2, 1),))
        b = SweepRequest("Allgather", ring(5), steps=3, candidates=((3, 1),))
        with pytest.raises(DispatchError):
            make_dispatcher("speculative").run([a, b])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_repeated_step_count_rejected(self, strategy):
        a = SweepRequest("Allgather", ring(4), steps=2, candidates=((2, 1),))
        b = replace(a, candidates=((3, 2),))
        with pytest.raises(DispatchError, match="distinct step counts"):
            make_dispatcher(strategy, max_workers=1).run([a, b])

    def test_empty_batch(self):
        assert make_dispatcher("speculative").run([]) == []

    def test_single_candidate_runs_inline(self):
        request = SweepRequest(
            collective="Allgather", topology=ring(4), steps=2, candidates=((2, 1),),
        )
        outcome = make_dispatcher("speculative", max_workers=4).sweep(request)
        serial = make_dispatcher("serial").sweep(request)
        assert outcome_fingerprint(outcome) == outcome_fingerprint(serial)


class TestMakeDispatcherSpeculative:
    def test_strategy_registered(self):
        assert make_dispatcher("speculative").name == "speculative"

    def test_invalid_workers_rejected(self):
        with pytest.raises(DispatchError):
            make_dispatcher("speculative", max_workers=0)
