"""FamilyExecutor: shared-prefix encodings across the (S, C, R) lattice.

The family contract is satisfiability-equivalence with cold solves at
every lattice point, one encoding per step count sized from the prefetch
hint (however many chunk and round counts a sweep probes), and an error —
not a rebuild — for a probe outside the hinted budgets.  The rounds-budget
selector layer under the frames is checked here too.
"""

import pytest

from repro.core import make_instance, pareto_synthesize, synthesize
from repro.core.encoding import EncodingError, PrefixAnalysis, ScclEncoding
from repro.engine import (
    DispatchError,
    Dispatcher,
    FamilyExecutor,
    SweepRequest,
    get_backend,
    make_dispatcher,
)
from repro.engine.dispatch import make_probe
from repro.solver import SolveResult
from repro.topology import dgx1, line, ring, star


def hinted(collective, topology, points, *, hint=None, root=0):
    """A family executor and the probes of ``points`` ((S, R, C) each).

    The executor is hinted with ``hint`` (more (S, R, C) points) or, by
    default, with the probes themselves, as the sweep loop hints it.
    """
    requests = {}

    def probe(steps, rounds, chunks):
        request = requests.setdefault(
            steps, SweepRequest(collective, topology, steps, (), root=root)
        )
        return make_probe(request, rounds, chunks)

    probes = [probe(*point) for point in points]
    executor = FamilyExecutor(probes[0].request)
    executor.prefetch(probes if hint is None else [probe(*point) for point in hint])
    return executor, probes


class TestLatticeEquivalence:
    @pytest.mark.parametrize(
        "collective,topology",
        [
            ("Allgather", ring(4)),
            ("Gather", line(3)),
            ("Broadcast", star(4)),
        ],
        ids=["allgather-ring4", "gather-line3", "broadcast-star4"],
    )
    def test_family_matches_cold_solves(self, collective, topology):
        executor, probes = hinted(collective, topology, [
            (steps, rounds, chunks)
            for steps in (2, 3)
            for chunks in (1, 2)
            for rounds in (steps, steps + 1)
        ])
        for probe in probes:
            steps, rounds, chunks = probe.key
            framed = executor.result(probe)
            cold = synthesize(make_instance(collective, topology, chunks, steps, rounds))
            assert framed.status == cold.status, probe.key
            if framed.is_sat:
                framed.algorithm.verify()
                assert framed.algorithm.total_rounds == rounds
                assert framed.algorithm.num_chunks == cold.instance.num_chunks
        # One encoding per step count served the whole 2x2x2 lattice slice.
        assert executor.encode_calls == 2

    def test_rooted_non_default_root(self):
        executor, (probe,) = hinted("Broadcast", star(4), [(2, 2, 2)], root=2)
        cold = synthesize(make_instance("Broadcast", star(4), 2, 2, 2, root=2))
        assert executor.result(probe).status == cold.status


class TestBudgets:
    """An encoding is built once, at its step count's hinted budgets."""

    def test_budgets_are_the_largest_hinted_point(self):
        executor, (probe,) = hinted(
            "Allgather", ring(4), [(3, 3, 1)], hint=[(3, 3, 1), (3, 4, 3), (3, 3, 2)]
        )
        assert executor.result(probe).is_sat
        (entry,) = executor._entries.values()
        budget = entry.encoder.instance
        assert (budget.chunks_per_node, budget.rounds, entry.encoder.rounds_budget) == (3, 4, 4)

    @pytest.mark.parametrize("point", [(3, 3, 2), (3, 5, 1), (2, 3, 1)],
                             ids=["chunks", "rounds", "unhinted-steps"])
    def test_a_probe_outside_the_hint_raises(self, point):
        # Hinted at S=3, C<=1, R<=4: a larger C or R, or another step
        # count, has no encoding to frame, and nothing rebuilds one.
        executor, (first, outside) = hinted(
            "Allgather", ring(4), [(3, 4, 1), point], hint=[(3, 3, 1), (3, 4, 1)]
        )
        executor.result(first)
        with pytest.raises(DispatchError, match="outside the hinted budgets"):
            executor.result(outside)
        assert executor.encode_calls == 1

    def test_an_unhinted_executor_raises(self):
        executor, (probe,) = hinted("Allgather", ring(4), [(2, 3, 1)], hint=[])
        with pytest.raises(DispatchError, match="outside the hinted budgets"):
            executor.result(probe)
        assert executor.encode_calls == 0


class TestRoundsSelectorLayer:
    def test_budget_encoding_agrees_with_cold_encoding(self):
        # Every R in the budget must give the same SAT/UNSAT answer as a
        # dedicated cold encoding at that R.
        executor, probes = hinted(
            "Allgather", ring(6), [(3, rounds, 1) for rounds in range(3, 7)]
        )
        for probe in probes:
            framed = executor.result(probe)
            cold = synthesize(make_instance("Allgather", ring(6), 1, 3, probe.rounds))
            assert framed.status is cold.status, f"R={probe.rounds}"
            if framed.is_sat:
                framed.algorithm.verify()
                assert framed.algorithm.total_rounds == probe.rounds

    def test_budget_encoding_agrees_on_unsat_family(self):
        # Allgather on a 6-ring with C=2 needs 5 rounds; 4 is UNSAT.
        executor, (four, five) = hinted("Allgather", ring(6), [(4, 4, 2), (4, 5, 2)])
        assert executor.result(four).is_unsat
        assert executor.result(five).is_sat

    def test_out_of_budget_rounds_rejected(self):
        # The selector only pins totals inside [S, budget].
        encoder = ScclEncoding(
            make_instance("Allgather", ring(4), 1, 2, 3), rounds_budget=3
        )
        encoder.encode()
        with pytest.raises(EncodingError):
            encoder.rounds_assumptions(4)
        with pytest.raises(EncodingError):
            encoder.rounds_assumptions(1)

    def test_budget_below_steps_rejected(self):
        with pytest.raises(EncodingError):
            ScclEncoding(make_instance("Allgather", ring(4), 1, 3, 3), rounds_budget=2)

    def test_rounds_assumptions_requires_budget(self):
        encoder = ScclEncoding(make_instance("Allgather", ring(4), 1, 2, 2))
        encoder.encode()
        with pytest.raises(Exception):
            encoder.rounds_assumptions(2)

    def test_single_encode_across_probes(self):
        executor, probes = hinted(
            "Broadcast", line(4), [(3, rounds, 1) for rounds in (3, 4, 5)]
        )
        for probe in probes:
            executor.result(probe)
        assert executor.encode_calls == 1


class TestFamilyResults:
    def test_results_report_backend_and_instance(self):
        executor, (probe,) = hinted("Allgather", ring(4), [(2, 3, 1)])
        result = executor.result(probe)
        assert result.backend == "cdcl"
        assert not result.cache_hit
        assert result.instance is probe.instance
        assert (result.instance.steps, result.instance.rounds) == (2, 3)

    def test_encode_time_attributed_to_first_probe(self):
        executor, (first, second) = hinted(
            "Allgather", ring(6), [(3, 3, 1), (3, 4, 1)], hint=[(3, 5, 1)]
        )
        assert executor.result(first).encode_time > 0.0
        assert executor.result(second).encode_time == 0.0


class TestPrefixEncodingContracts:
    def test_chunks_assumptions_bounds_checked(self):
        instance = make_instance("Allgather", ring(4), 2, 2, 2)
        encoder = ScclEncoding(instance, chunk_selector=True)
        with pytest.raises(EncodingError):
            encoder.chunks_assumptions(1)  # before encode()
        encoder.encode()
        with pytest.raises(EncodingError):
            encoder.chunks_assumptions(3)  # beyond the budget
        assert len(encoder.chunks_assumptions(1)) == 2
        assert len(encoder.chunks_assumptions(2)) == 1  # top level: no upper lit

    def test_plain_encoding_rejects_chunk_frames(self):
        instance = make_instance("Allgather", ring(4), 2, 2, 2)
        encoder = ScclEncoding(instance)
        encoder.encode()
        with pytest.raises(EncodingError):
            encoder.chunks_assumptions(1)

    def test_analysis_is_shared_and_grown(self):
        topology = ring(4)
        analysis = PrefixAnalysis(topology)
        small = make_instance("Allgather", topology, 1, 2, 2)
        analysis.ensure(small)
        rows = dict(analysis.rows)
        big = make_instance("Allgather", topology, 3, 2, 2)
        classes = analysis.ensure(big)
        # The three chunks a node starts with share one class, so growing C
        # adds chunks, not rows.
        assert len(classes) == 12 and set(classes) == set(rows)
        # Another collective adds its own classes; rows already there are
        # untouched by growth.
        analysis.ensure(make_instance("Alltoall", topology, 1, 2, 2))
        assert len(analysis.rows) > len(rows)
        for key, row in rows.items():
            assert analysis.rows[key] is row


class TestOneAnalysisAcrossCollectives:
    """A shared analysis serves a second collective or root as a fresh one does.

    Rows keyed by chunk id would hand the second instance the first one's
    placements and prune sends it needs (Broadcast from root 3 after an
    Allgather answered UNSAT).  Keyed by class, the formula is the same
    byte for byte.
    """

    FABRICS = {"ring6": lambda: ring(6), "dgx1": dgx1}

    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize(
        "collective,root",
        [(c, r) for c in ("Broadcast", "Gather", "Scatter") for r in (0, 3)]
        + [("Alltoall", 0)],
    )
    def test_after_allgather(self, fabric, collective, root):
        topology = self.FABRICS[fabric]()
        analysis = PrefixAnalysis(topology)
        ScclEncoding(make_instance("Allgather", topology, 1, 3, 3), analysis=analysis).encode()
        instance = make_instance(collective, topology, 1, 3, 3, root=root)
        shared = ScclEncoding(instance, analysis=analysis).encode()
        fresh = ScclEncoding(instance).encode()
        assert (shared.cnf.num_vars, shared.cnf.clauses) == (fresh.cnf.num_vars, fresh.cnf.clauses)
        for encoder in (shared, fresh):
            handle = get_backend().create()
            assert handle.load(encoder.cnf)
            assert handle.solve() is SolveResult.SAT


class TestIncrementalDispatcherFamilies:
    def test_one_encode_serves_mixed_chunk_sweep(self):
        request = SweepRequest(
            collective="Allgather",
            topology=ring(4),
            steps=3,
            candidates=((3, 2), (3, 1), (4, 2), (4, 1)),
            stop_at_first_sat=False,
        )
        outcome = make_dispatcher("incremental").sweep(request)
        assert len(outcome.results) == 4
        assert outcome.stats.encode_calls == 1
        assert outcome.stats.solver_calls == 4

    def test_family_persists_across_sweeps(self):
        executors = []

        def make_executor(request):
            executors.append(FamilyExecutor(request))
            return executors[-1]

        topology = ring(4)
        Dispatcher("incremental", make_executor).run([
            SweepRequest(
                collective="Allgather",
                topology=topology,
                steps=steps,
                candidates=((steps, 1), (steps + 1, 1)),
            )
            for steps in (2, 3)
        ])
        # One family handles both step counts of the run (two per-S
        # encodings sharing one reachability analysis).
        (executor,) = executors
        assert executor.encode_calls == 2

    def test_budgets_come_from_the_hint(self):
        # The sweep asks for C = 1 before C = 2 at every step count; the
        # hint sizes each encoding at the largest C and R it will be asked
        # for, so each step count is encoded once, never rebuilt.
        topology = ring(4)
        kwargs = dict(max_steps=4, conflict_limit=20000)
        family = pareto_synthesize("Broadcast", topology, 1, strategy="incremental", **kwargs)
        serial = pareto_synthesize("Broadcast", topology, 1, strategy="serial", **kwargs)
        assert family.engine_stats["encode_calls"] == 3
        assert family.engine_stats["solver_calls"] == serial.engine_stats["solver_calls"]
        assert [(p.signature, p.proved) for p in family.points] == [
            (p.signature, p.proved) for p in serial.points
        ]


class TestAcceptanceFixedStepSweepOnDgx1:
    """Acceptance criterion: a fixed-S Allgather candidate sweep on the
    DGX-1 uses strictly fewer total encoding calls than the serial baseline.
    """

    # The full S=2, k=2 candidate set capped at C<=2, probed exhaustively so
    # both strategies answer every candidate.
    REQUEST = SweepRequest(
        collective="Allgather",
        topology=dgx1(),
        steps=2,
        candidates=((3, 2), (2, 1), (4, 2), (3, 1), (4, 1)),
        stop_at_first_sat=False,
    )

    def test_incremental_sweep_uses_strictly_fewer_encodes(self):
        serial = make_dispatcher("serial").sweep(self.REQUEST)
        incremental = make_dispatcher("incremental").sweep(self.REQUEST)

        # Identical verdicts candidate by candidate...
        assert [r.status for r in incremental.results] == [
            r.status for r in serial.results
        ]
        for result in incremental.results:
            if result.is_sat:
                result.algorithm.verify()
        # ... at strictly lower encoding cost: one shared-prefix encoding
        # serves the whole sweep (previously one per distinct C, before
        # that one per candidate).
        assert serial.stats.encode_calls == len(self.REQUEST.candidates)
        assert incremental.stats.encode_calls == 1
        assert incremental.stats.encode_calls < serial.stats.encode_calls

    def test_early_stop_sweep_never_encodes_more_than_serial(self):
        request = SweepRequest(
            collective="Allgather",
            topology=dgx1(),
            steps=2,
            candidates=self.REQUEST.candidates,
        )
        serial = make_dispatcher("serial").sweep(request)
        incremental = make_dispatcher("incremental").sweep(request)
        assert incremental.stats.encode_calls <= serial.stats.encode_calls
        assert incremental.first_sat is not None
        assert (
            incremental.first_sat.instance.chunks_per_node,
            incremental.first_sat.instance.rounds,
        ) == (
            serial.first_sat.instance.chunks_per_node,
            serial.first_sat.instance.rounds,
        )
