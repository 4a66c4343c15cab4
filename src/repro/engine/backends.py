"""Pluggable solver backends for the synthesis engine.

The synthesis pipeline only needs a narrow slice of a SAT solver: load a
CNF, solve under assumptions with optional resource limits, read a model.
:class:`SolverBackend` captures that slice as a protocol, and a process-wide
registry maps backend names to factories so external solvers (a PySAT
binding, a subprocess DIMACS solver, ...) can be slotted in without touching
the encode/decode layers.

The default backend, ``"cdcl"``, wraps the pure-Python CDCL solver in
:mod:`repro.solver.sat`.  A ``"pysat"`` backend is registered automatically
when the optional ``python-sat`` package is importable, and a DIMACS
subprocess backend is registered for each industrial-strength solver binary
found on ``PATH`` (``kissat``, ``cadical``); the container image used for CI
ships neither, so both registrations are gated, never required.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..solver import CNF, SATSolver, SolveResult


class BackendError(Exception):
    """Raised for unknown or misconfigured solver backends."""


# ----------------------------------------------------------------------
# Backend quarantine
# ----------------------------------------------------------------------
class BackendQuarantine:
    """Track repeated solver failures and bench the offenders.

    A *crash* here means a solve call that failed completely — every retry
    exhausted without producing a verdict.  After ``threshold`` consecutive
    crashes a backend is marked quarantined — crash accounting that
    ``/v1/stats`` reports, so an operator can see a flaky binary dragging
    every solve to its retry ceiling.  A successful verdict resets the counter; an
    optional ``cooldown_s`` lets a quarantined backend back in after a
    quiet period (``None`` quarantines until an explicit :meth:`release`).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise BackendError("quarantine threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._crashes: Dict[str, int] = {}
        self._quarantined_at: Dict[str, float] = {}
        self._total_crashes: Dict[str, int] = {}

    def record_crash(self, name: str) -> bool:
        """Record one exhausted solve call; True if ``name`` is now benched."""
        with self._lock:
            count = self._crashes.get(name, 0) + 1
            self._crashes[name] = count
            self._total_crashes[name] = self._total_crashes.get(name, 0) + 1
            if count >= self.threshold and name not in self._quarantined_at:
                self._quarantined_at[name] = self._clock()
            return name in self._quarantined_at

    def record_success(self, name: str) -> None:
        with self._lock:
            self._crashes.pop(name, None)
            self._quarantined_at.pop(name, None)

    def is_quarantined(self, name: str) -> bool:
        with self._lock:
            benched_at = self._quarantined_at.get(name)
            if benched_at is None:
                return False
            if self.cooldown_s is not None and (
                self._clock() - benched_at >= self.cooldown_s
            ):
                # Cooldown elapsed: give the backend one more chance (the
                # crash counter restarts, so a still-broken solver is
                # re-benched after `threshold` further failures).
                self._quarantined_at.pop(name, None)
                self._crashes.pop(name, None)
                return False
            return True

    def release(self, name: str) -> None:
        """Manually un-bench a backend (e.g. after replacing the binary)."""
        self.record_success(name)

    def quarantined(self) -> List[str]:
        with self._lock:
            names = list(self._quarantined_at)
        return sorted(n for n in names if self.is_quarantined(n))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "threshold": self.threshold,
                "consecutive_crashes": dict(self._crashes),
                "total_crashes": dict(self._total_crashes),
                "quarantined": sorted(self._quarantined_at),
            }

    def reset(self) -> None:
        with self._lock:
            self._crashes.clear()
            self._quarantined_at.clear()
            self._total_crashes.clear()


#: Process-wide quarantine shared by the sweep loop and every DIMACS handle.
QUARANTINE = BackendQuarantine()


def get_quarantine() -> BackendQuarantine:
    return QUARANTINE


@runtime_checkable
class SolverHandle(Protocol):
    """One solver instance owning a loaded formula.

    A handle is *incremental*: after :meth:`load`, :meth:`solve` may be
    called many times with different assumption sets, and learned state may
    be reused across calls.
    """

    def load(self, cnf: CNF) -> bool:
        """Load a formula; returns False if it is trivially UNSAT.

        The handle may keep the formula's clause lists and reorder the
        literals within them (:meth:`CNF.hand_over`): ``cnf`` stays the
        same formula, clause for clause, and can be grown and loaded again.
        """
        ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        ...

    def model(self) -> Dict[int, bool]:
        ...

    def stats(self) -> Dict[str, float]:
        ...


@runtime_checkable
class SolverBackend(Protocol):
    """A named factory of :class:`SolverHandle` instances."""

    name: str

    def create(self) -> SolverHandle:
        ...


class CdclHandle:
    """Handle over the project's pure-Python CDCL solver."""

    def __init__(self) -> None:
        self._solver = SATSolver()

    def load(self, cnf: CNF) -> bool:
        return self._solver.add_cnf(cnf)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        return self._solver.solve(
            assumptions, conflict_limit=conflict_limit, time_limit=time_limit
        )

    def model(self) -> Dict[int, bool]:
        return self._solver.model()

    def stats(self) -> Dict[str, float]:
        return self._solver.stats.as_dict()


class CdclBackend:
    """The default backend: one :class:`SATSolver` per handle."""

    name = "cdcl"

    def create(self) -> CdclHandle:
        return CdclHandle()


class PySatBackend:
    """Backend over the optional ``python-sat`` package (if installed).

    Resource limits: conflict budgets map onto python-sat's ``conf_budget``;
    wall-clock limits — which python-sat does not expose natively — are
    honored with a watchdog timer that calls ``Solver.interrupt()`` when the
    budget expires, so a ``time_limit`` yields ``UNKNOWN`` instead of being
    silently ignored.
    """

    name = "pysat"

    def __init__(self, solver_name: str = "minisat22") -> None:
        self.solver_name = solver_name

    def create(self) -> "_PySatHandle":
        return _PySatHandle(self.solver_name)


class _PySatHandle:
    def __init__(self, solver_name: str) -> None:
        from pysat.solvers import Solver  # gated import; see register below

        self._solver = Solver(name=solver_name)
        self._num_vars = 0

    def load(self, cnf: CNF) -> bool:
        self._num_vars = cnf.num_vars
        for clause in cnf.clauses:
            self._solver.add_clause(clause)
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        if conflict_limit is None and time_limit is None:
            answer = self._solver.solve(assumptions=list(assumptions))
            return SolveResult.SAT if answer else SolveResult.UNSAT
        if conflict_limit is not None:
            self._solver.conf_budget(conflict_limit)
        watchdog: Optional[threading.Timer] = None
        if time_limit is not None:
            watchdog = threading.Timer(time_limit, self._solver.interrupt)
            watchdog.daemon = True
            watchdog.start()
        try:
            answer = self._solver.solve_limited(
                assumptions=list(assumptions),
                expect_interrupt=time_limit is not None,
            )
        finally:
            if watchdog is not None:
                watchdog.cancel()
                # The timer may have fired between solve_limited returning
                # and cancel(); always re-arm the handle so the next probe
                # of an incremental session is not stillborn-UNKNOWN.
                self._solver.clear_interrupt()
        if answer is None:
            return SolveResult.UNKNOWN
        return SolveResult.SAT if answer else SolveResult.UNSAT

    def model(self) -> Dict[int, bool]:
        raw = self._solver.get_model() or []
        model = {abs(lit): lit > 0 for lit in raw}
        for var in range(1, self._num_vars + 1):
            model.setdefault(var, False)
        return model

    def stats(self) -> Dict[str, float]:
        return dict(self._solver.accum_stats() or {})


#: Solver families whose native resource-limit flags we know how to drive.
#: ``{family: (time_flag_template, conflict_flag_template)}`` — ``None``
#: entries mean the limit is enforced only by the subprocess timeout.
_DIMACS_LIMIT_FLAGS: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "kissat": ("--time={seconds}", "--conflicts={conflicts}"),
    "cadical": ("-t {seconds}", None),
}

#: Binaries probed on PATH at import time, in registration order.
DIMACS_SOLVER_CANDIDATES = ("kissat", "cadical")


def classify_dimacs_exit(returncode: int) -> str:
    """SAT-competition exit-code classification.

    ``10`` is SAT, ``20`` is UNSAT, ``0`` is a clean "don't know" (a solver
    that hit its own limit and said so).  Everything else — negative codes
    (killed by a signal: OOM, segfault) and unexpected positive codes — is
    a *crash*: the solver did not render a verdict, and retrying the same
    formula is meaningful.
    """
    if returncode == 10:
        return "sat"
    if returncode == 20:
        return "unsat"
    if returncode == 0:
        return "unknown"
    return "crash"


class DimacsSolverBackend:
    """Subprocess backend over any DIMACS CNF solver binary.

    The handle writes the loaded formula (plus per-call assumptions as unit
    clauses) to a temporary ``.cnf`` file and invokes the solver, following
    SAT-competition conventions: exit code 10 is SAT (with a ``v``-line
    model), 20 is UNSAT, anything else is UNKNOWN.  Wall-clock limits are
    enforced twice — via the solver's native flag when the family is known
    (see ``_DIMACS_LIMIT_FLAGS``) and via the subprocess timeout always —
    so even a solver that ignores its flag cannot overrun the budget.
    Conflict budgets are passed through only where the family exposes a
    flag; requesting one from a family that does not raises
    :class:`BackendError` rather than silently running unbounded.

    Unlike the in-process backends the subprocess is not incremental: each
    ``solve`` call pays a fresh file write and process start.  The payoff is
    raw solver speed on the hard high-chunk-count instances.

    **Failure handling.**  Exit codes are classified with
    :func:`classify_dimacs_exit`; a *crash* (signal death, unexpected exit
    code) is retried on the exact same formula up to ``max_retries`` times
    with exponential backoff.  A call whose every attempt crashed counts
    against the process-wide :class:`BackendQuarantine` and conservatively
    reports ``UNKNOWN`` — a dying solver can slow a sweep down, never sink
    it or flip a verdict.  Any successful verdict resets the backend's
    quarantine counter.
    """

    def __init__(
        self,
        executable: str,
        *,
        name: Optional[str] = None,
        extra_args: Sequence[str] = (),
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        quarantine: Optional[BackendQuarantine] = None,
    ) -> None:
        if max_retries < 0:
            raise BackendError("max_retries must be non-negative")
        if retry_backoff_s < 0:
            raise BackendError("retry_backoff_s must be non-negative")
        self.executable = executable
        self.name = name or Path(executable).stem
        self.extra_args = tuple(extra_args)
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.quarantine = quarantine

    def create(self) -> "_DimacsHandle":
        return _DimacsHandle(
            self.executable,
            self.name,
            self.extra_args,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            quarantine=self.quarantine,
        )


class _DimacsHandle:
    def __init__(
        self,
        executable: str,
        family: str,
        extra_args: Tuple[str, ...],
        *,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        quarantine: Optional[BackendQuarantine] = None,
    ) -> None:
        self._executable = executable
        self._family = family
        self._extra_args = extra_args
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._quarantine = quarantine if quarantine is not None else QUARANTINE
        self._cnf: Optional[CNF] = None
        self._model: Dict[int, bool] = {}
        self._stats: Dict[str, float] = {
            "subprocess_calls": 0,
            "subprocess_time": 0.0,
            "crashes": 0,
            "retries": 0,
            "exhausted_calls": 0,
        }

    def load(self, cnf: CNF) -> bool:
        self._cnf = cnf
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        if self._cnf is None:
            raise BackendError("solve() called before load()")
        self._model = {}
        command = [self._executable, *self._extra_args]
        time_flag, conflict_flag = _DIMACS_LIMIT_FLAGS.get(self._family, (None, None))
        if time_limit is not None and time_flag is not None:
            command.extend(time_flag.format(seconds=max(1, int(time_limit))).split())
        if conflict_limit is not None:
            if conflict_flag is None:
                # Silently running unbounded would betray the "exceeded ->
                # unknown" contract; fail fast with an actionable message.
                raise BackendError(
                    f"solver family {self._family!r} exposes no conflict-budget "
                    f"flag; use a time limit instead"
                )
            command.extend(conflict_flag.format(conflicts=conflict_limit).split())

        fd, path = tempfile.mkstemp(prefix="repro-", suffix=".cnf")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # Assumptions become unit clauses of this one-shot formula;
                # the header counts them so strict parsers accept the file.
                handle.write(
                    f"p cnf {self._cnf.num_vars} "
                    f"{self._cnf.num_clauses + len(assumptions)}\n"
                )
                for clause in self._cnf.clauses:
                    handle.write(" ".join(str(lit) for lit in clause) + " 0\n")
                for literal in assumptions:
                    handle.write(f"{literal} 0\n")
            command.append(path)
            return self._solve_with_retries(command, time_limit)
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _solve_with_retries(
        self, command: List[str], time_limit: Optional[float]
    ) -> SolveResult:
        """Run the solver, retrying the exact formula on crash exit codes."""
        deadline = None if time_limit is None else time_limit + 5.0
        for attempt in range(self._max_retries + 1):
            start = time.monotonic()
            try:
                completed = subprocess.run(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    timeout=deadline,
                    text=True,
                )
            except subprocess.TimeoutExpired:
                # A timeout is the budget expiring, not a solver failure.
                return SolveResult.UNKNOWN
            except OSError as exc:
                raise BackendError(
                    f"cannot run DIMACS solver {self._executable!r}: {exc}"
                ) from exc
            finally:
                self._stats["subprocess_calls"] += 1
                self._stats["subprocess_time"] += time.monotonic() - start

            verdict = classify_dimacs_exit(completed.returncode)
            if verdict != "crash":
                self._quarantine.record_success(self._family)
                if verdict == "sat":
                    self._model = self._parse_model(completed.stdout)
                    return SolveResult.SAT
                if verdict == "unsat":
                    return SolveResult.UNSAT
                return SolveResult.UNKNOWN

            self._stats["crashes"] += 1
            if attempt < self._max_retries:
                self._stats["retries"] += 1
                if self._retry_backoff_s > 0:
                    time.sleep(self._retry_backoff_s * (2 ** attempt))

        # Every attempt crashed: count it against the quarantine and report
        # UNKNOWN so the sweep degrades instead of failing.
        self._stats["exhausted_calls"] += 1
        self._quarantine.record_crash(self._family)
        return SolveResult.UNKNOWN

    def _parse_model(self, stdout: str) -> Dict[int, bool]:
        model: Dict[int, bool] = {}
        for line in stdout.splitlines():
            if not line.startswith("v"):
                continue
            for token in line[1:].split():
                literal = int(token)
                if literal == 0:
                    continue
                model[abs(literal)] = literal > 0
        assert self._cnf is not None
        for var in range(1, self._cnf.num_vars + 1):
            model.setdefault(var, False)
        return model

    def model(self) -> Dict[int, bool]:
        return dict(self._model)

    def stats(self) -> Dict[str, float]:
        return dict(self._stats)


def register_dimacs_backends(
    candidates: Sequence[str] = DIMACS_SOLVER_CANDIDATES,
) -> List[str]:
    """Register a DIMACS backend per solver binary found on PATH.

    Called once at import time (mirroring the pysat gating); safe to call
    again after installing a solver.  Returns the names registered.
    """
    registered: List[str] = []
    for name in candidates:
        if name in _REGISTRY:
            continue
        executable = shutil.which(name)
        if executable is None:
            continue
        register_backend(DimacsSolverBackend(executable, name=name))
        registered.append(name)
    return registered


_REGISTRY: Dict[str, SolverBackend] = {}

DEFAULT_BACKEND = "cdcl"


def register_backend(backend: SolverBackend, *, replace: bool = False) -> None:
    """Register a backend under ``backend.name``."""
    name = getattr(backend, "name", "")
    if not name:
        raise BackendError("backend must expose a non-empty .name")
    if name in _REGISTRY and not replace:
        raise BackendError(f"backend {name!r} already registered (pass replace=True)")
    _REGISTRY[name] = backend


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (the default cannot be removed)."""
    if name == DEFAULT_BACKEND:
        raise BackendError("the default cdcl backend cannot be unregistered")
    _REGISTRY.pop(name, None)


def get_backend(name: Optional[str] = None) -> SolverBackend:
    """Look up a backend by name (``None`` selects the default)."""
    key = name or DEFAULT_BACKEND
    backend = _REGISTRY.get(key)
    if backend is None:
        raise BackendError(
            f"unknown solver backend {key!r}; available: {sorted(_REGISTRY)}"
        )
    return backend


def available_backends() -> List[str]:
    return sorted(_REGISTRY)


register_backend(CdclBackend())

try:  # pragma: no cover - exercised only where python-sat is installed
    import pysat.solvers  # noqa: F401

    register_backend(PySatBackend())
except ImportError:
    pass

register_dimacs_backends()
