"""Bound-seeded synthesis: lattice algebra units and on/off property tests.

The unit half exercises the :class:`BoundsLedger` algebra on synthetic
point sets — feasibility cones, monotone UNSAT shadows, subsumption,
consistency guards and the probe/cut/prune planner.  The property half
runs real Pareto sweeps with bounds on and off across every dispatch
strategy and asserts the *Pareto-optimal* frontier subset is identical:
pruning may only ever drop dominated probes.
"""

from fractions import Fraction

import pytest

from repro.core import pareto_synthesize, synthesize
from repro.core.instance import make_instance
from repro.core.synthesizer import SynthesisResult
from repro.engine import (
    AlgorithmCache,
    SweepRequest,
    STRATEGIES,
    lookup_result,
    make_dispatcher,
    store_result,
)
from repro.engine.bounds import (
    CUT,
    PROBE,
    PRUNE,
    BoundsError,
    BoundsLedger,
    FeasiblePoint,
    cut_result,
    seed_ledger,
    steps_splittable,
)
from repro.solver import SolveResult
from repro.topology import Topology, dgx1, line, ring


def _sat_result(collective, topology, steps, rounds, chunks):
    instance = make_instance(collective, topology, chunks, steps, rounds)
    return SynthesisResult(instance=instance, status=SolveResult.SAT)


def _unsat_result(collective, topology, steps, rounds, chunks):
    instance = make_instance(collective, topology, chunks, steps, rounds)
    return SynthesisResult(instance=instance, status=SolveResult.UNSAT)


# ----------------------------------------------------------------------
# Lattice algebra on synthetic point sets
# ----------------------------------------------------------------------
class TestLedgerAlgebra:
    def _ledger(self):
        return BoundsLedger("Allgather", ring(4))

    def test_feasible_cone_membership(self):
        ledger = self._ledger()
        ledger.add_feasible(3, 4, 5)
        # Same point, more steps, more rounds, fewer chunks: all witnessed.
        assert ledger.known_feasible(3, 4, 5)
        assert ledger.known_feasible(4, 4, 5)
        assert ledger.known_feasible(3, 6, 5)
        assert ledger.known_feasible(3, 4, 2)
        # Fewer steps, fewer rounds or more chunks: outside the cone.
        assert ledger.known_feasible(2, 4, 5) is None
        assert ledger.known_feasible(3, 3, 5) is None
        assert ledger.known_feasible(3, 4, 6) is None

    def test_infeasible_shadow_membership(self):
        ledger = self._ledger()
        ledger.add_infeasible(3, 4, 5)
        # Fewer steps/rounds or more chunks are harder: all killed.
        assert ledger.known_infeasible(3, 4, 5) == (3, 4, 5)
        assert ledger.known_infeasible(2, 4, 5) == (3, 4, 5)
        assert ledger.known_infeasible(3, 3, 6) == (3, 4, 5)
        # Easier points are not killed.
        assert ledger.known_infeasible(4, 4, 5) is None
        assert ledger.known_infeasible(3, 5, 5) is None
        assert ledger.known_infeasible(3, 4, 4) is None

    def test_invalid_lattice_points_raise(self):
        ledger = self._ledger()
        with pytest.raises(BoundsError):
            ledger.add_feasible(0, 1, 1)
        with pytest.raises(BoundsError):
            ledger.add_feasible(3, 2, 1)  # rounds < steps
        with pytest.raises(BoundsError):
            ledger.add_infeasible(1, 1, 0)

    def test_contradictions_fail_loudly(self):
        ledger = self._ledger()
        ledger.add_feasible(2, 2, 3, source="baseline:test")
        # UNSAT inside the feasible cone would mean a wrong bound: raise
        # instead of silently over-pruning.
        with pytest.raises(BoundsError):
            ledger.add_infeasible(2, 2, 3)
        with pytest.raises(BoundsError):
            ledger.add_infeasible(3, 4, 2)
        other = self._ledger()
        other.add_infeasible(2, 2, 3)
        with pytest.raises(BoundsError):
            other.add_feasible(2, 2, 3)
        with pytest.raises(BoundsError):
            other.add_feasible(1, 2, 4)

    def test_feasible_subsumption_keeps_maximal_knowledge(self):
        ledger = self._ledger()
        ledger.add_feasible(3, 4, 5)
        # Dominated point: already witnessed, ignored.
        ledger.add_feasible(4, 5, 4)
        assert ledger.known_feasible(4, 5, 4) is not None
        assert [(p.steps, p.rounds, p.chunks) for p in ledger._sweep_sats] == [
            (3, 4, 5)
        ]
        # Dominating point replaces the old one.
        ledger.add_feasible(2, 3, 6)
        assert [(p.steps, p.rounds, p.chunks) for p in ledger._sweep_sats] == [
            (2, 3, 6)
        ]

    def test_infeasible_subsumption(self):
        ledger = self._ledger()
        ledger.add_infeasible(3, 4, 5)
        ledger.add_infeasible(2, 3, 6)  # already in the shadow: dropped
        assert ledger._infeasible == [(3, 4, 5)]
        ledger.add_infeasible(4, 5, 4)  # subsumes the original witness
        assert ledger._infeasible == [(4, 5, 4)]

    def test_caps(self):
        ledger = self._ledger()
        ledger.add_feasible(3, 3, 2, source="baseline:ring")
        ledger.add_feasible(2, 3, 2)  # sweep SAT, bandwidth 3/2
        ledger.add_feasible(4, 5, 4)  # sweep SAT, bandwidth 5/4
        assert ledger.frontier_cap(2) is None
        assert ledger.frontier_cap(3) == Fraction(3, 2)
        assert ledger.frontier_cap(5) == Fraction(5, 4)
        assert ledger.baseline_cap(2) is None
        assert ledger.baseline_cap(3) == Fraction(3, 2)

    def test_plan_actions_on_synthetic_points(self):
        ledger = self._ledger()
        ledger.add_feasible(2, 2, 2, source="baseline:test")  # beta_b = 1
        ledger.add_feasible(2, 3, 2)  # sweep SAT, beta_f = 3/2 for S >= 3
        ledger.add_infeasible(3, 3, 3)
        # Candidates for S=3, deliberately unsorted to show each one is
        # judged independently.
        candidates = [
            (3, 3),  # cost 1, inside the UNSAT shadow      -> CUT
            (4, 5),  # cost 4/5 < caps, rounds 4 > 3
            #          escape the shadow                    -> PROBE
            (4, 2),  # cost 2 > beta_b                      -> PRUNE
            (3, 2),  # cost 3/2 >= beta_f                   -> PRUNE
            (4, 4),  # cost 1 == beta_b (strict: kept),
            #          not shadowed (rounds 4 > 3)          -> PROBE
        ]
        plan = ledger.plan(3, candidates)
        assert plan.actions == (CUT, PROBE, PRUNE, PRUNE, PROBE)
        assert plan.witnesses == {0: (3, 3, 3)}

    def test_baseline_prune_is_strict(self):
        # A candidate *matching* the best baseline bandwidth must still be
        # probed: it may be the bandwidth-optimal frontier terminal.
        ledger = self._ledger()
        ledger.add_feasible(7, 7, 6, source="baseline:nccl")  # 7/6
        plan = ledger.plan(7, [(7, 6), (7, 5)])
        assert plan.actions == (PROBE, PRUNE)

    def test_observe_folds_verdicts(self):
        ledger = self._ledger()
        ledger.observe(_sat_result("Allgather", ring(4), 2, 3, 2))
        ledger.observe(_unsat_result("Allgather", ring(4), 2, 2, 2))
        unknown = SynthesisResult(
            instance=make_instance("Allgather", ring(4), 6, 2, 2),
            status=SolveResult.UNKNOWN,
        )
        ledger.observe(unknown)  # carries no knowledge
        assert ledger.known_feasible(2, 3, 2) == "sweep"
        assert ledger.known_infeasible(2, 2, 2) == (2, 2, 2)
        assert ledger.known_feasible(2, 2, 6) is None

    def test_observe_skips_synthetic_cuts(self):
        ledger = self._ledger()
        ledger.add_infeasible(2, 2, 2)
        cut = cut_result("Allgather", ring(4), 2, 2, 3, witness=(2, 2, 2))
        ledger.observe(cut)  # re-states known facts; must not re-enter
        assert ledger._infeasible == [(2, 2, 2)]

    def test_cut_result_shape(self):
        result = cut_result("Allgather", ring(4), 2, 2, 3, witness=(2, 2, 2))
        assert result.is_unsat
        assert result.provenance == "cut"
        assert not result.cache_hit
        assert result.backend == "bounds"
        assert result.solver_stats["cut_witness_chunks"] == 2
        assert result.total_time == 0.0

    def test_feasible_point_bandwidth(self):
        assert FeasiblePoint(3, 3, 2, "sweep").bandwidth == Fraction(3, 2)


def pairwise_fabric():
    """Links 0->1, 0->2, 0->3; every *pair* of them shares one chunk per
    round.  A 2-round step carries three chunks (each pair sees two), two
    1-round steps carry only two — so a step cannot always be split."""
    topology = Topology(name="pairwise-3", num_nodes=4, constraints=[])
    links = [(0, 1), (0, 2), (0, 3)]
    for link in links:
        topology.add_link(*link)
    for i, first in enumerate(links):
        for second in links[i + 1:]:
            topology.add_shared_constraint([first, second], 1)
    return topology


class TestOverlappingConstraints:
    """Moving S at fixed R is only sound when steps can be split."""

    def test_overlap_is_detected(self):
        assert not steps_splittable(pairwise_fabric())
        assert steps_splittable(dgx1())
        assert steps_splittable(ring(4))

    def test_the_two_true_facts(self):
        fabric = pairwise_fabric()
        assert synthesize(make_instance("Scatter", fabric, 1, 1, 2)).is_sat
        assert synthesize(make_instance("Scatter", fabric, 1, 2, 2)).is_unsat

    def test_ledger_accepts_both_facts(self):
        ledger = BoundsLedger("Scatter", pairwise_fabric())
        ledger.add_feasible(1, 2, 1)
        ledger.add_infeasible(2, 2, 1)  # raised BoundsError before
        # Only the padded relations hold: an idle step costs a round.
        assert ledger.known_feasible(2, 3, 1) == "sweep"
        assert ledger.known_feasible(1, 3, 1) == "sweep"
        assert ledger.known_feasible(2, 2, 1) is None
        assert ledger.known_infeasible(1, 1, 1) == (2, 2, 1)
        assert ledger.known_infeasible(1, 2, 1) is None
        # A real contradiction still fails loudly.
        with pytest.raises(BoundsError):
            ledger.add_infeasible(2, 3, 1)

    def test_splittable_fabrics_keep_the_full_cone(self):
        ledger = BoundsLedger("Allgather", ring(4))
        ledger.add_feasible(1, 2, 1)
        assert ledger.known_feasible(2, 2, 1) == "sweep"
        with pytest.raises(BoundsError):
            ledger.add_infeasible(2, 2, 1)

    @pytest.mark.parametrize("strategy", ["serial", "incremental"])
    def test_pareto_points_agree_bounds_on_off(self, strategy):
        fabric = pairwise_fabric()
        on = pareto_synthesize("Scatter", fabric, k=1, max_steps=3,
                               strategy=strategy, bounds="baseline")
        off = pareto_synthesize("Scatter", fabric, k=1, max_steps=3,
                                strategy=strategy, bounds="off")
        assert pareto_subset(on) == pareto_subset(off) != []


class TestSeedLedger:
    def test_dgx1_allgather_seed(self):
        ledger = seed_ledger("Allgather", dgx1())
        assert "baseline:nccl" in ledger.sources()
        assert ledger.known_feasible(7, 7, 6) is not None
        assert ledger.baseline_cap(7) == Fraction(7, 6)

    def test_unseedable_instance_yields_empty_ledger(self):
        ledger = seed_ledger("Gather", line(3))
        assert ledger.sources() == []
        assert ledger.baseline_cap(10) is None

    def test_seeded_points(self):
        ledger = seed_ledger("Allgather", ring(4))
        assert ledger.sources() != []
        assert ledger.known_feasible(3, 3, 2) is not None
        # A seed is an upper bound only: it records no UNSAT.
        assert ledger.known_infeasible(1, 1, 1) is None


# ----------------------------------------------------------------------
# Dispatcher integration with an injected ledger (cut/prune paths)
# ----------------------------------------------------------------------
def _request(ledger, candidates, steps=2):
    return SweepRequest(
        collective="Allgather",
        topology=ring(4),
        steps=steps,
        candidates=tuple(candidates),
        bounds=ledger,
    )


class TestDispatchersConsultLedger:
    def _cut_ledger(self):
        ledger = BoundsLedger("Allgather", ring(4))
        ledger.add_infeasible(2, 2, 2)
        return ledger

    def _prune_ledger(self):
        ledger = BoundsLedger("Allgather", ring(4))
        ledger.add_feasible(1, 1, 1)  # sweep SAT at S=1: beta_f = 1 for S >= 2
        return ledger

    @pytest.mark.parametrize(
        "dispatcher",
        [make_dispatcher(name, max_workers=2) for name in STRATEGIES],
        ids=STRATEGIES,
    )
    def test_cuts_answer_without_solver(self, dispatcher):
        # Both candidates sit inside the injected UNSAT shadow, so the whole
        # sweep resolves with zero solver calls and synthetic UNSAT results.
        request = _request(self._cut_ledger(), [(2, 3), (2, 2)])
        outcome = dispatcher.sweep(request)
        assert outcome.stats.probes_cut == 2
        assert outcome.stats.solver_calls == 0
        assert outcome.stats.candidates_probed == 0
        assert [r.status for r in outcome.results] == [
            SolveResult.UNSAT, SolveResult.UNSAT,
        ]
        assert all(r.provenance == "cut" for r in outcome.results)

    @pytest.mark.parametrize(
        "dispatcher",
        [make_dispatcher(name, max_workers=2) for name in STRATEGIES],
        ids=STRATEGIES,
    )
    def test_prunes_skip_candidates_entirely(self, dispatcher):
        request = _request(self._prune_ledger(), [(2, 2), (2, 1)])
        outcome = dispatcher.sweep(request)
        assert outcome.stats.probes_pruned == 2
        assert outcome.stats.solver_calls == 0
        assert outcome.results == []

    def test_unseeded_request_unchanged(self):
        request = _request(None, [(3, 2)])
        outcome = make_dispatcher("serial").sweep(request)
        assert outcome.stats.probes_pruned == 0
        assert outcome.stats.probes_cut == 0
        assert outcome.stats.candidates_probed == 1

    def test_serial_observes_verdicts(self):
        ledger = BoundsLedger("Allgather", ring(4))
        request = _request(ledger, [(2, 3), (2, 2), (3, 2)])
        outcome = make_dispatcher("serial").sweep(request)
        # Every solved verdict must land in the ledger: UNSATs as witnesses,
        # the first SAT as a feasible point.
        sat = outcome.first_sat
        assert sat is not None
        inst = sat.instance
        assert ledger.known_feasible(inst.steps, inst.rounds, inst.chunks_per_node)
        for result in outcome.results:
            if result.is_unsat:
                ri = result.instance
                assert ledger.known_infeasible(
                    ri.steps, ri.rounds, ri.chunks_per_node
                )

    def test_cut_results_persist_provenance(self, tmp_path):
        cache = AlgorithmCache(tmp_path)
        request = _request(self._cut_ledger(), [(2, 2)])
        (outcome,) = make_dispatcher("serial").run([request], cache=cache)
        assert outcome.stats.probes_cut == 1
        instance = make_instance("Allgather", ring(4), 2, 2, 2)
        replayed = lookup_result(cache, instance)
        assert replayed is not None
        assert replayed.is_unsat
        assert replayed.cache_hit
        assert replayed.provenance == "cut"

    def test_bound_results_persist_their_witness_and_feed_the_ledger(self, tmp_path):
        cache = AlgorithmCache(tmp_path)
        instance = make_instance("Allgather", ring(4), 2, 2, 2)  # 6 chunks at 2 per round
        fresh = synthesize(instance, cache=cache)
        assert fresh.provenance == "bound" and not fresh.cache_hit
        replayed = synthesize(instance, cache=cache)
        assert replayed.cache_hit and replayed.provenance == "bound"
        assert replayed.witness == fresh.witness
        assert replayed.summary().splitlines()[1] == fresh.summary().splitlines()[1]
        # An arithmetic UNSAT is knowledge like any other UNSAT.
        ledger = BoundsLedger("Allgather", ring(4))
        ledger.observe(replayed)
        assert ledger.known_infeasible(2, 2, 3) == (2, 2, 2)

    def test_solved_results_persist_solved_provenance(self, tmp_path):
        cache = AlgorithmCache(tmp_path)
        result = _unsat_result("Allgather", ring(4), 2, 2, 6)
        assert store_result(cache, result)
        replayed = lookup_result(cache, result.instance)
        assert replayed.provenance == "solved"


# ----------------------------------------------------------------------
# Property tests: bounds on/off leave the Pareto-optimal frontier intact
# ----------------------------------------------------------------------
#: (collective, topology factory, k, max_steps, max_chunks) — Gather has no
#: baselines (empty ledger), Broadcast's enumeration needs a step cap.
PROPERTY_INSTANCES = [
    ("Allgather", ring, 4, 1, None, None),
    ("Gather", line, 3, 0, None, 4),
    ("Broadcast", ring, 4, 0, 3, None),
]


def pareto_subset(frontier):
    """The surviving frontier: everything except probe accounting."""
    return [
        (
            point.signature,
            point.status.value,
            point.latency_optimal,
            point.bandwidth_optimal,
        )
        for point in frontier.points
        if point.pareto_optimal
    ]


def _run(collective, topo_factory, nodes, k, max_steps, max_chunks, **kwargs):
    return pareto_synthesize(
        collective,
        topo_factory(nodes),
        k,
        max_steps=max_steps,
        max_chunks=max_chunks,
        **kwargs,
    )


class TestBoundsPreserveFrontier:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "collective,factory,nodes,k,max_steps,max_chunks",
        PROPERTY_INSTANCES,
        ids=[f"{c}-{f.__name__}{n}" for c, f, n, _, _, _ in PROPERTY_INSTANCES],
    )
    def test_pareto_subset_identical_on_off(
        self, strategy, collective, factory, nodes, k, max_steps, max_chunks
    ):
        common = dict(strategy=strategy, max_workers=2)
        on = _run(collective, factory, nodes, k, max_steps, max_chunks,
                  bounds="baseline", **common)
        off = _run(collective, factory, nodes, k, max_steps, max_chunks,
                   bounds="off", **common)
        assert pareto_subset(on) == pareto_subset(off)
        assert on.bounds in ("baseline",)
        assert off.bounds == "off"
        # Seeding must never issue MORE probes than the unseeded run.
        assert (
            on.engine_stats["candidates_probed"]
            <= off.engine_stats["candidates_probed"]
        )

    def test_serial_algorithms_byte_identical_on_off(self):
        # For the serial strategy the surviving points' decoded schedules
        # are also byte-identical: the same standalone formulas are solved
        # in the same order.  (The incremental family's formula layout
        # depends on the chunk budget, so only signatures are compared
        # across the on/off pair there.)
        on = _run("Allgather", ring, 4, 1, None, None,
                  strategy="serial", bounds="baseline")
        off = _run("Allgather", ring, 4, 1, None, None,
                   strategy="serial", bounds="off")
        on_algos = [p.algorithm.to_dict() for p in on.points if p.pareto_optimal]
        off_algos = [p.algorithm.to_dict() for p in off.points if p.pareto_optimal]
        assert on_algos == off_algos

    def test_warm_cache_replay_matches_cold(self, tmp_path):
        cache_args = dict(strategy="serial", bounds="baseline")
        cache = AlgorithmCache(tmp_path)
        cold = _run("Allgather", ring, 4, 1, None, None, cache=cache, **cache_args)
        warm = _run("Allgather", ring, 4, 1, None, None, cache=cache, **cache_args)
        assert cold.to_dict(include_timing=False) == warm.to_dict(include_timing=False)
        assert warm.engine_stats["cache_hits"] > 0
        assert warm.engine_stats["solver_calls"] == 0
        # The prune/cut decisions are made before the cache is consulted,
        # so warm accounting matches cold accounting.
        assert (
            warm.engine_stats["probes_pruned"] == cold.engine_stats["probes_pruned"]
        )
        assert warm.engine_stats["probes_cut"] == cold.engine_stats["probes_cut"]

    def test_warm_cache_bounds_off_still_agrees(self, tmp_path):
        # A cache written by a seeded run replayed by an unseeded run (and
        # vice versa) must still produce the same Pareto-optimal subset.
        cache = AlgorithmCache(tmp_path)
        seeded = _run("Allgather", ring, 4, 1, None, None,
                      strategy="serial", bounds="baseline", cache=cache)
        unseeded = _run("Allgather", ring, 4, 1, None, None,
                        strategy="serial", bounds="off", cache=cache)
        assert pareto_subset(seeded) == pareto_subset(unseeded)

    @pytest.mark.parametrize("strategy", ["serial", "incremental"])
    def test_unknown_retry_path_agrees(self, strategy):
        # Tight conflict limits force UNKNOWNs (and the incremental
        # dispatcher's exact-formula retries); the surviving subset must
        # still be bounds-invariant.
        common = dict(strategy=strategy, conflict_limit=10_000)
        on = _run("Allgather", ring, 4, 1, 3, None, bounds="baseline", **common)
        off = _run("Allgather", ring, 4, 1, 3, None, bounds="off", **common)
        assert pareto_subset(on) == pareto_subset(off)

    def test_unknown_bounds_mode_rejected(self):
        with pytest.raises(Exception):
            pareto_synthesize("Allgather", ring(4), bounds="mystery")

    def test_combining_collective_threads_bounds(self):
        on = pareto_synthesize(
            "Reducescatter", ring(4), 1, strategy="serial", bounds="baseline"
        )
        off = pareto_synthesize(
            "Reducescatter", ring(4), 1, strategy="serial", bounds="off"
        )
        assert pareto_subset(on) == pareto_subset(off)
        assert on.bounds == "baseline"
