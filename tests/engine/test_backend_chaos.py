"""Chaos tests: crashing subprocess solvers, retry/backoff and quarantine.

The "solver" here is a tiny Python script whose exit code follows a plan
written next to it: SAT-competition codes (10/20/0) are verdicts, anything
else is a crash.  A side-car counter file makes crash-then-recover
scenarios deterministic without real kissat/cadical binaries.
"""

import sys
import textwrap

import pytest

from repro.core import make_instance, synthesize
from repro.engine import (
    BackendQuarantine,
    DimacsSolverBackend,
    classify_dimacs_exit,
    register_backend,
    unregister_backend,
)
from repro.solver.sat import SolveResult
from repro.solver.cnf import CNF
from repro.topology import ring


def make_crashy_solver(tmp_path, exit_codes):
    """A fake DIMACS solver whose Nth invocation exits with exit_codes[N]
    (the last code repeats forever).  Returns (script_path, counter_path).

    Each invocation appends one byte to the counter file, so the file's
    size is the attempt count even when pool workers run the solver
    concurrently (a read-then-write counter loses their updates)."""
    counter = tmp_path / "attempts.txt"
    script = tmp_path / "crashy_solver.py"
    script.write_text(
        textwrap.dedent(
            f"""
            import os, sys
            fd = os.open({str(counter)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, b"x")
            n = os.fstat(fd).st_size - 1
            os.close(fd)
            codes = {list(exit_codes)!r}
            code = codes[min(n, len(codes) - 1)]
            if code == 10:
                print("s SATISFIABLE")
                print("v 1 0")
            sys.exit(code)
            """
        )
    )
    return script, counter


def crashy_backend(tmp_path, exit_codes, **kwargs):
    # name="crashy" keeps the backend out of _DIMACS_LIMIT_FLAGS, so no
    # solver-specific limit flags are appended to the command line.
    script, counter = make_crashy_solver(tmp_path, exit_codes)
    backend = DimacsSolverBackend(
        sys.executable,
        name="crashy",
        extra_args=(str(script),),
        **kwargs,
    )
    return backend, counter


def tiny_cnf():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add_clause([a])
    return cnf


class TestExitClassification:
    def test_sat_competition_codes(self):
        assert classify_dimacs_exit(10) == "sat"
        assert classify_dimacs_exit(20) == "unsat"
        assert classify_dimacs_exit(0) == "unknown"

    @pytest.mark.parametrize("code", [1, 7, 127, -9, -11])
    def test_everything_else_is_a_crash(self, code):
        assert classify_dimacs_exit(code) == "crash"


class TestQuarantine:
    def test_benches_after_threshold_consecutive_crashes(self):
        q = BackendQuarantine(threshold=3)
        assert not q.record_crash("x")
        assert not q.record_crash("x")
        assert q.record_crash("x")  # third consecutive crash benches
        assert q.is_quarantined("x")

    def test_success_resets_the_counter(self):
        q = BackendQuarantine(threshold=2)
        q.record_crash("x")
        q.record_success("x")
        q.record_crash("x")
        assert not q.is_quarantined("x")

    def test_cooldown_readmits(self):
        clock = [0.0]
        q = BackendQuarantine(threshold=1, cooldown_s=10.0, clock=lambda: clock[0])
        q.record_crash("x")
        assert q.is_quarantined("x")
        clock[0] = 11.0
        assert not q.is_quarantined("x")

    def test_release_and_stats(self):
        q = BackendQuarantine(threshold=1)
        q.record_crash("x")
        assert q.quarantined() == ["x"]
        q.release("x")
        assert q.quarantined() == []
        stats = q.stats()
        assert stats["total_crashes"] == {"x": 1}


class TestCrashRetry:
    def test_crash_then_verdict_is_retried(self, tmp_path):
        backend, counter = crashy_backend(
            tmp_path, [7, 7, 20], max_retries=2, retry_backoff_s=0.0,
            quarantine=BackendQuarantine(threshold=3),
        )
        handle = backend.create()
        handle.load(tiny_cnf())
        assert handle.solve() is SolveResult.UNSAT
        assert len(counter.read_bytes()) == 3
        stats = handle.stats()
        assert stats["crashes"] == 2
        assert stats["retries"] == 2
        assert stats["exhausted_calls"] == 0

    def test_crash_then_sat_parses_model(self, tmp_path):
        backend, _ = crashy_backend(
            tmp_path, [137, 10], max_retries=1, retry_backoff_s=0.0,
            quarantine=BackendQuarantine(),
        )
        handle = backend.create()
        handle.load(tiny_cnf())
        assert handle.solve() is SolveResult.SAT
        assert handle.model()[1] is True

    def test_exhausted_retries_report_unknown_not_crash(self, tmp_path):
        backend, counter = crashy_backend(
            tmp_path, [9], max_retries=2, retry_backoff_s=0.0,
            quarantine=BackendQuarantine(threshold=100),
        )
        handle = backend.create()
        handle.load(tiny_cnf())
        assert handle.solve() is SolveResult.UNKNOWN
        assert len(counter.read_bytes()) == 3  # 1 attempt + 2 retries
        assert handle.stats()["exhausted_calls"] == 1

    def test_exhausted_calls_feed_the_quarantine(self, tmp_path):
        quarantine = BackendQuarantine(threshold=2)
        backend, _ = crashy_backend(
            tmp_path, [9], max_retries=0, retry_backoff_s=0.0, quarantine=quarantine,
        )
        handle = backend.create()
        handle.load(tiny_cnf())
        handle.solve()
        assert not quarantine.is_quarantined("crashy")
        handle.solve()
        assert quarantine.is_quarantined("crashy")

    def test_verdict_resets_quarantine_counter(self, tmp_path):
        quarantine = BackendQuarantine(threshold=2)
        backend, _ = crashy_backend(
            tmp_path, [9, 20, 9], max_retries=0, retry_backoff_s=0.0,
            quarantine=quarantine,
        )
        handle = backend.create()
        handle.load(tiny_cnf())
        handle.solve()  # crash -> counter 1
        handle.solve()  # unsat -> counter reset
        handle.solve()  # crash -> counter 1 again
        assert not quarantine.is_quarantined("crashy")


class TestSweepSurvival:
    def test_synthesis_survives_an_always_crashing_backend(self, tmp_path):
        """A dying solver degrades the answer to UNKNOWN; it never raises."""
        backend, _ = crashy_backend(
            tmp_path, [9], max_retries=1, retry_backoff_s=0.0,
            quarantine=BackendQuarantine(threshold=100),
        )
        register_backend(backend, replace=True)
        try:
            result = synthesize(
                make_instance("Allgather", ring(4), 1, 2, 3), backend="crashy"
            )
            assert result.is_unknown
            assert result.solver_stats.get("exhausted_calls", 0) >= 1
        finally:
            unregister_backend("crashy")

    def test_worker_crashes_feed_the_parent_quarantine(self, tmp_path):
        """Crash counters travel back from pool workers: a backend that
        dies in child processes shows up in the parent's process-wide
        quarantine (what ``/v1/stats`` reports)."""
        from repro.engine import SweepRequest, get_quarantine, make_dispatcher

        backend, counter = crashy_backend(
            tmp_path, [9], max_retries=0, retry_backoff_s=0.0,
            quarantine=BackendQuarantine(threshold=100),
        )
        register_backend(backend, replace=True)
        parent = get_quarantine()
        parent.reset()
        try:
            request = SweepRequest(
                collective="Allgather", topology=ring(4), steps=3,
                candidates=((3, 1), (4, 1), (5, 1)), backend="crashy",
            )
            outcome = make_dispatcher("speculative", max_workers=2).sweep(request)
            # A dying solver degrades every probe to UNKNOWN, never raises.
            assert len(outcome.results) == 3
            assert all(r.is_unknown for r in outcome.results)
            assert len(counter.read_bytes()) >= 3
            assert parent.stats()["total_crashes"]["crashy"] == 3
            assert parent.is_quarantined("crashy")
        finally:
            parent.reset()
            unregister_backend("crashy")
