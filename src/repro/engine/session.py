"""Shared-prefix synthesis sessions: encode once per step count, probe many.

A :class:`SessionFamily` serves the whole ``(S, C, R)`` lattice of one
collective on one topology — it is what the sweep loop's family executor
(:class:`~repro.engine.dispatch.FamilyExecutor`, the default
``incremental`` strategy) asks for results.  Per step count ``S`` it owns
one *shared-prefix* encoding (``chunk_selector=True`` with a rounds
budget) loaded into one persistent solver handle, so every ``(C, R)``
candidate of a fixed-``S`` sweep is a per-candidate assumption frame over
one encoding — one encode per ``S`` instead of one per candidate — and the
solver's learned clauses carry over between probes.  The ``S``-independent
reachability analysis is computed once per family and shared by every
per-``S`` encoding.  An encoding is built once, at its chunk and rounds
budgets, and never grown: a candidate outside them rebuilds that step
count's encoding at the larger budgets, which the sweep loop avoids by
sizing both budgets from the probes it will ask for.

Satisfiability is identical to a cold encode at the probed candidate:
widening the per-step round domains is inert once the total is pinned
(every other step performs at least one round, so no step can exceed
``R - (S - 1)``), the selector assumptions force the total exactly, and
disabled chunk levels can neither send nor owe postconditions.  A frame is
still a *larger* formula than the cold one, so it can exhaust a conflict
or time budget the cold formula would not.  The sweep loop answers the
first such UNKNOWN of a step count on the exact formula and sends the rest
of that step count there directly (``engine/dispatch.py``, the UNKNOWN
policy): the family is asked while its frames decide, and a step count
whose probes are bound by the budget rather than by the formula pays for
one frame, not for one per candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.encoding import PrefixAnalysis, ScclEncoding
from ..core.instance import SynCollInstance, make_instance
from ..solver import SolveResult
from ..telemetry import get_tracer
from ..topology import Topology
from .backends import CdclHandle


class SessionError(Exception):
    """Raised for invalid incremental-session requests."""


@dataclass
class _FamilyEntry:
    """One step count's shared-prefix encoding plus its solver handle."""

    encoder: ScclEncoding
    handle: CdclHandle
    trivially_unsat: bool = False
    pending_encode_time: float = 0.0  # attributed to the next probe
    prev_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def chunks_budget(self) -> int:
        return self.encoder.instance.chunks_per_node

    @property
    def rounds_budget(self) -> int:
        return self.encoder.rounds_budget or self.encoder.instance.rounds


class SessionFamily:
    """Shared-prefix encodings across the whole ``(S, C, R)`` lattice.

    The family owns one chunk-selector encoding (and one persistent solver
    handle) per step count ``S``; :meth:`solve` answers any ``(S, C, R)``
    candidate with a per-candidate assumption frame, so a fixed-``S``
    candidate sweep pays exactly one encoding, and the reachability
    analysis behind variable pruning is computed once for the whole
    family.  A chunk count or a round count beyond an encoding's budget
    rebuilds that step count's encoding at the larger budgets, which
    callers avoid by passing the sweep's known budgets up front via
    ``max_chunks`` / ``max_rounds``.
    """

    def __init__(
        self,
        collective: str,
        topology: Topology,
        *,
        root: int = 0,
    ) -> None:
        self.collective = collective
        self.topology = topology
        self.root = root
        self._analysis = PrefixAnalysis(topology)
        self._entries: Dict[int, _FamilyEntry] = {}
        # One instance per lattice point: a candidate's frame and a budget
        # that coincides with it are the same object.
        self._instances: Dict[Tuple[int, int, int], SynCollInstance] = {}
        self.encode_calls = 0
        self.rebuilds = 0          # budget overflows (subset of the above)
        self.solver_calls = 0

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def _budget_instance(self, steps: int, chunks: int, rounds: int) -> SynCollInstance:
        key = (steps, chunks, rounds)
        instance = self._instances.get(key)
        if instance is None:
            instance = self._instances[key] = make_instance(
                self.collective, self.topology, chunks, steps, rounds, root=self.root
            )
        return instance

    def _build_entry(self, steps: int, chunks: int, rounds: int) -> _FamilyEntry:
        with get_tracer().span("encode", S=steps, C=chunks, R=rounds, family=True):
            start = time.monotonic()
            encoder = ScclEncoding(
                self._budget_instance(steps, chunks, rounds),
                rounds_budget=rounds,
                chunk_selector=True,
                analysis=self._analysis,
            )
            encoder.encode()
            elapsed = time.monotonic() - start
        self.encode_calls += 1
        handle = CdclHandle()
        loaded = handle.load(encoder.cnf)
        entry = _FamilyEntry(
            encoder=encoder,
            handle=handle,
            trivially_unsat=not loaded,
            pending_encode_time=elapsed,
        )
        self._entries[steps] = entry
        return entry

    def _entry_for(
        self, steps: int, chunks: int, rounds: int,
        max_chunks: Optional[int], max_rounds: Optional[int],
    ) -> _FamilyEntry:
        want_chunks = max(chunks, max_chunks or 0)
        want_rounds = max(rounds, max_rounds or 0)
        entry = self._entries.get(steps)
        if entry is None:
            return self._build_entry(steps, want_chunks, want_rounds)
        if want_chunks > entry.chunks_budget or want_rounds > entry.rounds_budget:
            # A formula is built at its budgets and never grown: rebuild this
            # step count at the larger ones (the analysis is still shared).
            self.rebuilds += 1
            return self._build_entry(
                steps,
                max(want_chunks, entry.chunks_budget),
                max(want_rounds, entry.rounds_budget),
            )
        return entry

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def solve(
        self,
        steps: int,
        chunks: int,
        rounds: int,
        *,
        max_chunks: Optional[int] = None,
        max_rounds: Optional[int] = None,
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
        instance: Optional[SynCollInstance] = None,
    ):
        """Probe one ``(S, C, R)`` candidate; returns a SynthesisResult.

        ``instance`` is the candidate's instance when the caller already
        built it (the sweep loop has); the result carries it.  The frame is
        finished like a cold probe (:func:`~repro.core.synthesizer.finish_probe`)
        and counted by the caller, not here.
        """
        from ..core.synthesizer import SynthesisError, finish_probe

        if rounds < steps:
            raise SessionError(
                f"rounds {rounds} below the step count {steps}"
            )
        if chunks < 1:
            raise SessionError(f"chunk count must be positive, got {chunks}")
        if instance is None:
            instance = self._budget_instance(steps, chunks, rounds)
        elif (instance.steps, instance.chunks_per_node, instance.rounds) != (
            steps, chunks, rounds
        ):
            raise SessionError(
                f"instance {instance.describe()!r} is not the probed candidate"
            )
        else:
            self._instances.setdefault((steps, chunks, rounds), instance)
        with get_tracer().span(
            "probe",
            collective=self.collective,
            C=chunks,
            S=steps,
            R=rounds,
            backend=CdclHandle.name,
        ) as probe_span:
            entry = self._entry_for(steps, chunks, rounds, max_chunks, max_rounds)
            encode_time, entry.pending_encode_time = entry.pending_encode_time, 0.0

            def solve():
                if entry.trivially_unsat:
                    return SolveResult.UNSAT, {}
                status = entry.handle.solve(
                    entry.encoder.frame_assumptions(chunks, rounds),
                    conflict_limit=conflict_limit, time_limit=time_limit,
                )
                # The handle's counters are cumulative: report this frame's.
                raw = entry.handle.stats()
                previous, entry.prev_stats = entry.prev_stats, dict(raw)
                return status, {
                    key: value if key == "max_decision_level"
                    else value - previous.get(key, 0)
                    for key, value in raw.items()
                }

            result = finish_probe(
                instance, solve,
                lambda: entry.encoder.decode(entry.handle.model(), instance=instance),
                backend=CdclHandle.name, encode_time=encode_time,
                encoding_stats=entry.encoder.stats.as_dict(),
            )
            self.solver_calls += 1
            probe_span.set(verdict=result.status.value, cache_hit=False)
            algorithm = result.algorithm
            if algorithm is not None and (
                algorithm.total_rounds != rounds
                or algorithm.num_chunks != instance.num_chunks
            ):  # pragma: no cover - selector guard
                raise SynthesisError(
                    f"selector leak: asked for {rounds} rounds and "
                    f"{instance.num_chunks} chunks, decoded "
                    f"{algorithm.total_rounds} and {algorithm.num_chunks}"
                )
            return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        budgets = ", ".join(
            f"S={steps}:C<={entry.chunks_budget},R<={entry.rounds_budget}"
            for steps, entry in sorted(self._entries.items())
        )
        return (
            f"SessionFamily({self.collective} on {self.topology.name}: "
            f"[{budgets}] backend={CdclHandle.name}, "
            f"encodes={self.encode_calls} ({self.rebuilds} rebuilds), "
            f"solves={self.solver_calls})"
        )
