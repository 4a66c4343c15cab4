"""SessionFamily: shared-prefix encodings across the (S, C, R) lattice.

The family contract is satisfiability-equivalence with cold solves at
every lattice point, one encoding per step count (however many chunk
counts a sweep probes), and a rebuild — not an error — when a chunk or
rounds budget is exceeded.
"""

import pytest

from repro.core import make_instance, pareto_synthesize, synthesize
from repro.core.encoding import EncodingError, PrefixAnalysis, ScclEncoding
from repro.engine import (
    Dispatcher,
    FamilyExecutor,
    SessionFamily,
    SweepRequest,
    get_backend,
    make_dispatcher,
)
from repro.engine.session import SessionError
from repro.solver import SolveResult
from repro.topology import dgx1, line, ring, star


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
        family = SessionFamily(collective, topology)
        for steps in (2, 3):
            for chunks in (1, 2):
                for rounds in (steps, steps + 1):
                    probe = family.solve(
                        steps, chunks, rounds, max_chunks=2, max_rounds=steps + 1
                    )
                    cold = synthesize(
                        make_instance(collective, topology, chunks, steps, rounds)
                    )
                    assert probe.status == cold.status, (steps, chunks, rounds)
                    if probe.is_sat:
                        probe.algorithm.verify()
                        assert probe.algorithm.total_rounds == rounds
                        assert probe.algorithm.num_chunks == cold.instance.num_chunks
        # One encoding per step count served the whole 2x2x2 lattice slice.
        assert family.encode_calls == 2
        assert family.solver_calls == 8

    def test_rooted_non_default_root(self):
        family = SessionFamily("Broadcast", star(4), root=2)
        probe = family.solve(2, 2, 2, max_chunks=2)
        cold = synthesize(make_instance("Broadcast", star(4), 2, 2, 2, root=2))
        assert probe.status == cold.status


class TestBudgets:
    def test_chunk_budget_overflow_rebuilds(self):
        family = SessionFamily("Allgather", ring(4))
        family.solve(3, 1, 3, max_chunks=1, max_rounds=4)
        assert family.rebuilds == 0
        # Exceeding the chunk budget (within the rounds budget) rebuilds the
        # step count at the larger chunk budget, keeping the rounds budget.
        probe = family.solve(3, 3, 4)
        cold = synthesize(make_instance("Allgather", ring(4), 3, 3, 4))
        assert probe.status == cold.status
        assert (family.rebuilds, family.encode_calls) == (1, 2)
        assert "S=3:C<=3,R<=4" in family.describe()

    def test_rounds_budget_overflow_rebuilds(self):
        family = SessionFamily("Allgather", ring(4))
        family.solve(2, 1, 2, max_rounds=2)
        assert family.rebuilds == 0
        probe = family.solve(2, 1, 4)
        assert family.rebuilds == 1
        cold = synthesize(make_instance("Allgather", ring(4), 1, 2, 4))
        assert probe.status == cold.status

    def test_invalid_probes_rejected(self):
        family = SessionFamily("Allgather", ring(4))
        with pytest.raises(SessionError):
            family.solve(3, 1, 2)  # rounds below steps
        with pytest.raises(SessionError):
            family.solve(2, 0, 2)  # no chunks

    def test_describe_mentions_budgets(self):
        family = SessionFamily("Allgather", ring(4))
        family.solve(2, 2, 3, max_chunks=2, max_rounds=3)
        text = family.describe()
        assert "S=2" in text and "C<=2" in text and "R<=3" in text


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
