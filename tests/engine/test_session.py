"""Tests for the rounds-budget selector layer, driven through
:class:`SessionFamily` frames and :class:`ScclEncoding` directly."""

import pytest

from repro.core import ScclEncoding, make_instance, synthesize
from repro.core.encoding import EncodingError
from repro.engine import SessionError, SessionFamily, SweepRequest, make_dispatcher
from repro.topology import dgx1, line, ring


class TestRoundsSelectorLayer:
    def test_budget_encoding_agrees_with_cold_encoding(self):
        # Every R in the budget must give the same SAT/UNSAT answer as a
        # dedicated cold encoding at that R.
        family = SessionFamily("Allgather", ring(6))
        for rounds in range(3, 7):
            incremental = family.solve(3, 1, rounds, max_rounds=6)
            cold = synthesize(make_instance("Allgather", ring(6), 1, 3, rounds))
            assert incremental.status is cold.status, f"R={rounds}"
            if incremental.is_sat:
                incremental.algorithm.verify()
                assert incremental.algorithm.total_rounds == rounds

    def test_budget_encoding_agrees_on_unsat_family(self):
        # Allgather on a 6-ring with C=2 needs 5 rounds; 4 is UNSAT.
        family = SessionFamily("Allgather", ring(6))
        assert family.solve(4, 2, 4, max_rounds=5).is_unsat
        assert family.solve(4, 2, 5, max_rounds=5).is_sat

    def test_out_of_budget_rounds_rejected(self):
        # The selector only pins totals inside [S, budget]; a family widens
        # the budget by rebuilding instead of asking for such a frame.
        encoder = ScclEncoding(
            make_instance("Allgather", ring(4), 1, 2, 3), rounds_budget=3
        )
        encoder.encode()
        with pytest.raises(EncodingError):
            encoder.rounds_assumptions(4)
        with pytest.raises(EncodingError):
            encoder.rounds_assumptions(1)
        with pytest.raises(SessionError):
            SessionFamily("Allgather", ring(4)).solve(2, 1, 1)

    def test_budget_below_steps_rejected(self):
        with pytest.raises(EncodingError):
            ScclEncoding(make_instance("Allgather", ring(4), 1, 3, 3), rounds_budget=2)

    def test_rounds_assumptions_requires_budget(self):
        encoder = ScclEncoding(make_instance("Allgather", ring(4), 1, 2, 2))
        encoder.encode()
        with pytest.raises(Exception):
            encoder.rounds_assumptions(2)

    def test_single_encode_across_probes(self):
        family = SessionFamily("Broadcast", line(4))
        for rounds in (3, 4, 5):
            family.solve(3, 1, rounds, max_rounds=5)
        assert family.encode_calls == 1
        assert family.solver_calls == 3


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


class TestSessionResults:
    def test_results_report_backend_and_instance(self):
        family = SessionFamily("Allgather", ring(4))
        result = family.solve(2, 1, 3)
        assert result.backend == "cdcl"
        assert not result.cache_hit
        assert result.instance.rounds == 3
        assert result.instance.steps == 2

    def test_encode_time_attributed_to_first_probe(self):
        family = SessionFamily("Allgather", ring(6))
        first = family.solve(3, 1, 3, max_rounds=5)
        second = family.solve(3, 1, 4, max_rounds=5)
        assert first.encode_time > 0.0
        assert second.encode_time == 0.0
