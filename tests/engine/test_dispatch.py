"""Tests for the candidate-sweep loop under each strategy name, including
the determinism acceptance criterion: the pool executor returns
byte-identical Pareto frontiers to the inline one on the small test
topologies.  (``test_sweep_loop.py`` holds the executor contract and the
full strategy x cache x bounds x limit property grid.)
"""

import json

import pytest

from repro.core import pareto_synthesize
from repro.engine import (
    STRATEGIES,
    DispatchError,
    Dispatcher,
    SweepRequest,
    make_dispatcher,
)
from repro.topology import fully_connected, line, ring, star


def frontier_bytes(frontier) -> bytes:
    return json.dumps(frontier.to_dict(include_timing=False), sort_keys=True).encode()


class TestMakeDispatcher:
    def test_strategies(self):
        # One loop class; the name only selects the executor behind it.
        for strategy in STRATEGIES:
            dispatcher = make_dispatcher(strategy)
            assert isinstance(dispatcher, Dispatcher)
            assert dispatcher.name == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DispatchError):
            make_dispatcher("quantum")

    def test_invalid_workers_rejected(self):
        with pytest.raises(DispatchError):
            make_dispatcher("parallel", max_workers=0)


class TestParallelDeterminism:
    """Acceptance criterion: byte-identical frontiers, serial vs parallel."""

    @pytest.mark.parametrize(
        "collective,topology,k,max_steps",
        [
            ("Allgather", ring(4), 0, 4),
            ("Allgather", ring(4), 1, 3),
            ("Gather", line(3), 0, 4),
            ("Broadcast", star(5), 0, 3),
            ("Alltoall", fully_connected(3), 0, 3),
            ("Allreduce", ring(4), 0, 3),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_frontiers_byte_identical(self, collective, topology, k, max_steps):
        serial = pareto_synthesize(
            collective, topology, k=k, max_steps=max_steps, strategy="serial"
        )
        parallel = pareto_synthesize(
            collective, topology, k=k, max_steps=max_steps,
            strategy="parallel", max_workers=2,
        )
        assert frontier_bytes(serial) == frontier_bytes(parallel)

    def test_parallel_sweep_replays_serial_rule(self):
        request = SweepRequest(
            collective="Allgather",
            topology=ring(6),
            steps=3,
            candidates=((3, 1), (4, 1), (5, 1)),
        )
        serial = make_dispatcher("serial").sweep(request)
        parallel = make_dispatcher("parallel", max_workers=2).sweep(request)
        assert [r.status for r in parallel.results] == [r.status for r in serial.results]
        assert len(parallel.results) == len(serial.results)

    def test_single_candidate_runs_inline(self):
        # No pool is spun up for a single candidate; outcome matches serial.
        request = SweepRequest(
            collective="Allgather",
            topology=ring(4),
            steps=2,
            candidates=((2, 1),),
        )
        outcome = make_dispatcher("parallel", max_workers=4).sweep(request)
        assert outcome.first_sat is not None


class TestIncrementalEquivalence:
    def test_incremental_matches_serial_signatures(self):
        # Incremental solving may find a different concrete schedule, but the
        # frontier's (C, S, R) signatures, statuses and optimality flags are
        # determined by satisfiability alone and must agree.
        serial = pareto_synthesize("Allgather", ring(6), k=1, max_steps=4, strategy="serial")
        incremental = pareto_synthesize(
            "Allgather", ring(6), k=1, max_steps=4, strategy="incremental"
        )
        assert [p.signature for p in incremental.points] == [
            p.signature for p in serial.points
        ]
        assert [p.optimality_label() for p in incremental.points] == [
            p.optimality_label() for p in serial.points
        ]
        for point in incremental.points:
            point.algorithm.verify()


class TestEngineStatsOnFrontier:
    def test_frontier_records_engine_stats(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=3)
        stats = frontier.engine_stats
        assert stats["candidates_probed"] >= len(frontier.points)
        assert stats["encode_calls"] >= 1
        assert stats["cache_hits"] == 0
