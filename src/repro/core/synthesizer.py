"""Single-instance synthesis: encode, solve, decode, verify.

:func:`synthesize` is the workhorse that Algorithm 1 (in
:mod:`repro.core.pareto`) calls once per candidate ``(S, R, C)`` tuple.  It
returns a :class:`SynthesisResult` carrying the outcome, the decoded and
*verified* algorithm (for SAT answers), and the timing / size statistics
that the paper's Tables 4 and 5 report.

Solving is delegated to the engine layer: a
:class:`~repro.engine.backends.CdclHandle` over the in-house CDCL solver
answers every probe, and an optional
:class:`~repro.engine.cache.AlgorithmCache` short-circuits candidates whose
outcome a previous run already persisted (``cache_hit=True`` on the result).
Engine imports are deferred to call time so ``repro.core`` and
``repro.engine`` can import each other's submodules without a cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..solver import SolveResult
from ..telemetry import get_metrics, get_tracer
from .algorithm import Algorithm
from .bounds import Cut
from .encoding import ScclEncoding
from .instance import SynCollInstance


class SynthesisError(Exception):
    """Raised when a model decodes to an invalid algorithm (encoder bug guard)."""


@dataclass
class SynthesisResult:
    """Outcome of synthesizing a single SynColl instance."""

    instance: SynCollInstance
    status: SolveResult
    algorithm: Optional[Algorithm] = None
    encode_time: float = 0.0
    solve_time: float = 0.0
    verify_time: float = 0.0
    encoding_stats: Dict[str, int] = field(default_factory=dict)
    solver_stats: Dict[str, float] = field(default_factory=dict)
    backend: str = "cdcl"
    cache_hit: bool = False
    #: How this verdict was obtained: ``"solved"`` (a solver ran),
    #: ``"bound"`` (the encoder refuted the instance by cut arithmetic, see
    #: ``witness``) or ``"cut"`` (synthesized from a monotone UNSAT bound);
    #: no solver ran for the last two.  Cache replays keep the provenance
    #: of the entry they replay.
    provenance: str = "solved"
    #: The cut behind a ``"bound"`` verdict: more chunks must enter
    #: ``witness.part`` than its links carry in ``instance.rounds`` rounds.
    witness: Optional[Cut] = None
    #: Telemetry spans recorded while producing this result in a pool
    #: worker process (``Tracer.export()`` dicts).  The dispatching parent
    #: re-parents them under its sweep span and drops the field; it is
    #: never persisted to the cache.
    trace: Optional[list] = None

    @property
    def is_sat(self) -> bool:
        return self.status is SolveResult.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolveResult.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status is SolveResult.UNKNOWN

    @property
    def total_time(self) -> float:
        """Encoding plus solving time — the quantity in the paper's "Time" columns."""
        return self.encode_time + self.solve_time

    def summary(self) -> str:
        sig = (
            f"C={self.instance.chunks_per_node} S={self.instance.steps} "
            f"R={self.instance.rounds}"
        )
        if self.cache_hit:
            provenance = f"[cached, backend={self.backend}]"
        else:
            provenance = f"[backend={self.backend}]"
        line = (
            f"{self.instance.collective} [{sig}] -> {self.status.value} "
            f"in {self.total_time:.2f}s "
            f"(encode {self.encode_time:.2f}s, solve {self.solve_time:.2f}s) "
            f"{provenance}"
        )
        if self.witness is not None:
            line += f"\n  no solver ran: {self.witness.describe(self.instance.rounds)}"
        return line


def synthesize(
    instance: SynCollInstance,
    *,
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    name: Optional[str] = None,
    cache=None,
) -> SynthesisResult:
    """Synthesize an algorithm for one SynColl instance.

    The formula is the paper's time/send split encoding with reachability
    pruning (:class:`~repro.core.encoding.ScclEncoding`), and every decoded
    algorithm is re-checked against the run semantics; a violation raises
    :class:`SynthesisError` (it would indicate a bug in the encoder, not
    user error).

    Parameters
    ----------
    instance:
        The ``(G, S, R, P, B, pre, post)`` tuple to solve.
    time_limit / conflict_limit:
        Seconds for the whole call (an encode is not interrupted: the solver
        gets what is left) and the solver's conflict budget; on exhaustion
        the result status is ``UNKNOWN``.
    cache:
        An :class:`~repro.engine.cache.AlgorithmCache`.  A hit returns a
        replayed result (``cache_hit=True``) without encoding or solving;
        fresh SAT/UNSAT outcomes are persisted back.

    A solver call made here is counted in the metrics registry; the sweep
    loop, which calls the uncounted :func:`_probe`, counts its own.
    """
    result = _probe(
        instance, deadline=deadline_after(time_limit), conflict_limit=conflict_limit,
        name=name, cache=cache,
    )
    if not result.cache_hit:
        count_solver_call(result)
    return result


def deadline_after(seconds: Optional[float]) -> Optional[float]:
    """The ``time.monotonic()`` deadline ``seconds`` from now (None for none);
    a negative or NaN time limit raises :class:`ValueError`."""
    if seconds is None:
        return None
    if not seconds >= 0:
        raise ValueError(f"time_limit must be >= 0, got {seconds!r}")
    return time.monotonic() + seconds


def seconds_left(deadline: Optional[float]) -> Optional[float]:
    """Seconds until ``deadline``, never negative (None for no deadline)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def count_solver_call(result: SynthesisResult) -> None:
    """Commit one solver call that produced ``result`` to the metrics registry."""
    metrics = get_metrics()
    metrics.inc("repro_solver_calls_total", backend=result.backend)
    metrics.observe("repro_solve_seconds", result.solve_time, backend=result.backend)


def _probe(
    instance: SynCollInstance,
    *,
    deadline: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    name: Optional[str] = None,
    cache=None,
) -> SynthesisResult:
    """:func:`synthesize` without the metrics, bounded by ``deadline``."""
    from ..engine.backends import CdclHandle
    from ..engine.cache import instance_fingerprint, lookup_result, store_result

    # The cache key of this probe, computed once for lookup and store.
    key = instance_fingerprint(instance) if cache is not None else None

    with get_tracer().span(
        "probe",
        collective=instance.collective,
        C=instance.chunks_per_node,
        S=instance.steps,
        R=instance.rounds,
        backend=CdclHandle.name,
    ) as probe_span:
        if cache is not None:
            cached = lookup_result(cache, instance, key=key)
            if cached is not None:
                if name is not None and cached.algorithm is not None:
                    cached.algorithm = cached.algorithm.renamed(name)
                probe_span.set(
                    verdict=cached.status.value, cache_hit=True,
                    backend=cached.backend,
                )
                return cached

        result = solve_encoding(
            ScclEncoding(instance), time_limit=seconds_left(deadline),
            conflict_limit=conflict_limit, name=name,
        )
        probe_span.set(verdict=result.status.value, cache_hit=False)
        if cache is not None:
            store_result(cache, result, key=key)
        return result


def solve_encoding(
    encoder,
    *,
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    name: Optional[str] = None,
) -> SynthesisResult:
    """Encode, solve, decode and verify one formula, uncached and uncounted.

    Every probe's formula is the pruned :class:`ScclEncoding`
    (:func:`_probe`).  The differential tests also hand in
    ``ScclEncoding(instance, prune=False)``, the formula no probe solves.
    ``time_limit`` bounds the whole call, as :func:`synthesize`'s does.
    """
    from ..engine.backends import CdclHandle

    deadline = deadline_after(time_limit)
    with get_tracer().span("encode"):
        start = time.monotonic()
        encoder.encode()
        encode_time = time.monotonic() - start

    # A cut witness means the encoder refuted the instance by arithmetic
    # (the formula is the empty clause): no solver sees it.
    witness = encoder.cut_witness
    handle = CdclHandle()

    def solve():
        if witness is not None or not handle.load(encoder.cnf):
            return SolveResult.UNSAT, {}
        status = handle.solve(conflict_limit=conflict_limit, time_limit=seconds_left(deadline))
        return status, handle.stats()

    return finish_probe(
        encoder.instance, solve, lambda: encoder.decode(handle.model(), name=name),
        backend=CdclHandle.name, encode_time=encode_time,
        encoding_stats=encoder.stats.as_dict(), witness=witness,
    )


def finish_probe(
    instance: SynCollInstance,
    solve: Callable[[], Tuple[SolveResult, Dict[str, float]]],
    decode: Callable[[], Algorithm],
    *,
    backend: str,
    encode_time: float,
    encoding_stats: Dict[str, int],
    witness: Optional[Cut] = None,
) -> SynthesisResult:
    """The end every encoded probe shares, a cold formula or a family frame.

    ``solve()`` runs under the ``solve`` span and returns the verdict with
    the solver's statistics; a SAT verdict's ``decode()`` is then checked
    by ``Algorithm.verify()`` under the ``verify`` span.
    """
    tracer = get_tracer()
    with tracer.span("solve", backend=backend):
        start = time.monotonic()
        status, solver_stats = solve()
        solve_time = time.monotonic() - start
    result = SynthesisResult(
        instance=instance,
        status=status,
        encode_time=encode_time,
        solve_time=solve_time,
        encoding_stats=encoding_stats,
        solver_stats=solver_stats,
        backend=backend,
        provenance="solved" if witness is None else "bound",
        witness=witness,
    )
    if status is SolveResult.SAT:
        algorithm = decode()
        with tracer.span("verify"):
            start = time.monotonic()
            try:
                algorithm.verify()
            except Exception as exc:  # pragma: no cover - encoder bug guard
                raise SynthesisError(
                    f"decoded algorithm fails verification: {exc}"
                ) from exc
            result.verify_time = time.monotonic() - start
        result.algorithm = algorithm
    return result
