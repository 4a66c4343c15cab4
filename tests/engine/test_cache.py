"""Tests for the persistent algorithm cache, including the acceptance
criterion that a warm-cache run of examples/quickstart.py performs zero
solver calls.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import make_instance, pareto_synthesize, synthesize
from repro.engine import (
    AlgorithmCache,
    fingerprint,
    instance_fingerprint,
    lookup_result,
)
from repro.runtime import lower
from repro.solver import SATSolver
from repro.topology import Topology, dgx1, ring

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture
def cache(tmp_path):
    return AlgorithmCache(tmp_path / "algorithms")


def forbid_solving(monkeypatch):
    """Make any SAT-solver invocation fail the test."""

    def boom(self, *args, **kwargs):  # pragma: no cover - the assertion itself
        raise AssertionError("solver was invoked during a warm-cache run")

    monkeypatch.setattr(SATSolver, "solve", boom)


class TestFingerprint:
    def test_name_and_cost_params_do_not_affect_key(self):
        import dataclasses

        topo = ring(4)
        renamed = dataclasses.replace(topo, name="other", alpha=1.0, beta=2.0)
        assert fingerprint("Allgather", topo, 1, 2, 3) == fingerprint(
            "Allgather", renamed, 1, 2, 3
        )

    def test_signature_fields_affect_key(self):
        topo = ring(4)
        base = fingerprint("Allgather", topo, 1, 2, 3)
        assert base != fingerprint("Allgather", topo, 1, 2, 2)
        assert base != fingerprint("Allgather", topo, 2, 2, 3)
        assert base != fingerprint("Gather", topo, 1, 2, 3)
        assert base != fingerprint("Allgather", ring(6), 1, 2, 3)
        assert base != fingerprint("Allgather", topo, 1, 2, 3, root=1)

    def test_keys_are_the_hash_of_the_whole_canonical_payload(self):
        """The topology's part is serialised once and spliced in; the key
        must stay the SHA-256 of the one-shot canonical JSON (entries on
        disk are addressed by it), with the one formula's ``encoding`` and
        ``prune`` as constants."""
        import hashlib

        from repro.engine.cache import CACHE_FORMAT_VERSION, topology_fingerprint_payload

        def one_shot(collective, topology, chunks, steps, rounds, root):
            payload = {
                "version": CACHE_FORMAT_VERSION, "collective": collective,
                "topology": topology_fingerprint_payload(topology),
                "chunks_per_node": chunks, "steps": steps, "rounds": rounds,
                "root": root, "encoding": "sccl", "prune": True,
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        for topology in (ring(4), dgx1()):
            for args in (
                ("Allgather", topology, 1, 2, 2, 0),
                ("Broadcast", topology, 3, 4, 5, 2),
                ('Odd "name"\\', topology, 10, 11, 12, 3),
            ):
                collective, _, chunks, steps, rounds, root = args
                assert fingerprint(
                    collective, topology, chunks, steps, rounds, root=root
                ) == one_shot(*args)
        # Recorded at the commit before the splice.
        assert fingerprint("Allgather", dgx1(), 1, 2, 2) == (
            "719698455844b21bf866655ffc5a7244bb4ec2b082df9bd1429fc2ce8f87f187"
        )

    def test_key_follows_an_edited_topology(self):
        topo = ring(4)
        before = fingerprint("Allgather", topo, 1, 2, 3)
        topo.add_link(0, 2)
        assert fingerprint("Allgather", topo, 1, 2, 3) != before
        assert fingerprint("Allgather", topo, 1, 2, 3) == fingerprint(
            "Allgather", Topology("x", 4, list(topo.constraints)), 1, 2, 3
        )


class TestCacheBasics:
    def test_sat_roundtrip(self, cache):
        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        cold = synthesize(instance, cache=cache)
        assert not cold.cache_hit
        warm = synthesize(instance, cache=cache)
        assert warm.cache_hit
        assert warm.is_sat
        warm.algorithm.verify()
        assert warm.backend == cold.backend

    def test_unsat_cached(self, cache):
        instance = make_instance("Allgather", ring(4), 1, 1, 1)
        assert not synthesize(instance, cache=cache).cache_hit
        warm = synthesize(instance, cache=cache)
        assert warm.cache_hit and warm.is_unsat

    def test_stored_bytes_are_the_sorted_json_of_the_entry(self, cache):
        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        synthesize(instance, cache=cache)
        key = instance_fingerprint(instance)
        entry, _ = cache.lookup_decoded(key, ring(4))
        assert cache._path(key).read_text(encoding="utf-8") == json.dumps(
            entry.to_json(), sort_keys=True
        )

    def test_a_failed_store_leaves_no_temp_and_counts_no_store(self, cache, monkeypatch):
        from repro.engine import CacheEntry
        from repro.engine import cache as cache_module
        from repro.telemetry import Metrics, set_metrics

        def refuse(src, dst):
            raise OSError("disk full")

        entry = CacheEntry(key="ab" + "0" * 62, status="unsat", backend="test")
        metrics = Metrics()
        previous = set_metrics(metrics)
        try:
            monkeypatch.setattr(cache_module.os, "replace", refuse)
            with pytest.raises(OSError, match="disk full"):
                cache.store(entry)
        finally:
            set_metrics(previous)
        assert metrics.value("repro_cache_stores_total") == 0.0
        assert list(cache._path(entry.key).parent.iterdir()) == []
        assert cache.lookup_decoded(entry.key, ring(4)) is None

    def test_unknown_not_cached(self, cache):
        instance = make_instance("Allgather", ring(6), 2, 5, 5)
        result = synthesize(instance, cache=cache, conflict_limit=1)
        if result.is_unknown:
            assert len(cache) == 0
            assert not synthesize(instance, cache=cache, conflict_limit=1).cache_hit

    def test_corrupted_entry_is_a_miss(self, cache):
        instance = make_instance("Allgather", ring(4), 1, 2, 2)
        synthesize(instance, cache=cache)
        key = instance_fingerprint(instance)
        path = cache._path(key)
        path.write_text("{not json", encoding="utf-8")
        assert lookup_result(cache, instance) is None
        # And a fresh solve repairs the entry.
        repaired = synthesize(instance, cache=cache)
        assert not repaired.cache_hit
        assert synthesize(instance, cache=cache).cache_hit

    def test_unwritable_cache_never_fails_synthesis(self):
        # The cache is an optimization: a broken cache directory must not
        # turn a successful solve into an error.
        broken = AlgorithmCache("/dev/null/not-a-directory")
        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        result = synthesize(instance, cache=broken)
        assert result.is_sat and not result.cache_hit
        result.algorithm.verify()

    def test_tampered_algorithm_fails_closed(self, cache):
        instance = make_instance("Allgather", ring(4), 1, 2, 2)
        synthesize(instance, cache=cache)
        key = instance_fingerprint(instance)
        path = cache._path(key)
        data = json.loads(path.read_text(encoding="utf-8"))
        # Drop every send from the schedule; verification must reject it.
        for step in data["algorithm"]["steps"]:
            step["sends"] = []
        path.write_text(json.dumps(data), encoding="utf-8")
        assert lookup_result(cache, instance) is None
        assert not path.exists()  # the bad entry was discarded

    @pytest.mark.parametrize("read", ["lookup_result", "load_algorithm"])
    def test_a_corrupt_entry_is_one_miss_everywhere(self, cache, read):
        """A schedule that no longer decodes is counted once, as a miss (and
        a corrupt entry), never as a hit."""
        from repro.telemetry import Metrics, set_metrics

        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        synthesize(instance, cache=cache)
        path = cache._path(instance_fingerprint(instance))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["algorithm"]["steps"] = data["algorithm"]["steps"][:1]
        path.write_text(json.dumps(data), encoding="utf-8")

        reader = AlgorithmCache(cache.root)
        metrics = Metrics()
        previous = set_metrics(metrics)
        try:
            if read == "lookup_result":
                assert lookup_result(reader, instance) is None
            else:
                assert reader.load_algorithm("Allgather", instance.topology, 1, 2, 3) is None
        finally:
            set_metrics(previous)
        assert metrics.value("repro_cache_lookups_total", outcome="hit") == 0
        assert metrics.value("repro_cache_lookups_total", outcome="miss") == 1
        assert metrics.value("repro_cache_corrupt_total") == 1


class TestWarmRunsPerformZeroSolverCalls:
    def test_warm_synthesize_never_touches_the_solver(self, cache, monkeypatch):
        instance = make_instance("Allgather", ring(4), 1, 2, 3)
        synthesize(instance, cache=cache)
        forbid_solving(monkeypatch)
        warm = synthesize(instance, cache=cache)
        assert warm.cache_hit and warm.is_sat

    def test_warm_pareto_never_touches_the_solver(self, cache, monkeypatch):
        kwargs = dict(k=1, max_steps=3, cache=cache)
        cold = pareto_synthesize("Allgather", ring(4), **kwargs)
        forbid_solving(monkeypatch)
        warm = pareto_synthesize("Allgather", ring(4), **kwargs)
        assert [p.signature for p in warm.points] == [p.signature for p in cold.points]
        assert all(p.cache_hit for p in warm.points)
        assert warm.engine_stats["cache_hits"] == warm.engine_stats["candidates_probed"]

    def test_warm_quickstart_performs_zero_solver_calls(self, tmp_path, monkeypatch, capsys):
        """Acceptance criterion: warm examples/quickstart.py -> no solving."""
        spec = importlib.util.spec_from_file_location(
            "quickstart_under_test", EXAMPLES_DIR / "quickstart.py"
        )
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "qs-cache"))
        monkeypatch.setattr(sys, "argv", ["quickstart.py"])
        quickstart.main()  # cold run populates the cache
        capsys.readouterr()

        forbid_solving(monkeypatch)
        quickstart.main()  # warm run must complete without any solver call
        out = capsys.readouterr().out
        assert "cached" in out
        assert "functional execution: OK" in out


class TestRuntimeLoadsCachedAlgorithms:
    def test_cached_algorithm_lowers(self, cache):
        topo = dgx1()
        instance = make_instance("Allgather", topo, 1, 2, 2)
        synthesize(instance, cache=cache)
        program = lower(cache.load_algorithm("Allgather", topo, 1, 2, 2))
        assert program.num_ranks == topo.num_nodes

    def test_missing_entry_loads_nothing(self, cache):
        assert cache.load_algorithm("Allgather", ring(4), 1, 2, 3) is None


class TestParallelSharesTheCache:
    def test_parallel_workers_populate_the_cache(self, cache):
        frontier = pareto_synthesize(
            "Allgather", ring(4), k=1, max_steps=3,
            strategy="parallel", max_workers=2, cache=cache,
        )
        assert frontier.points
        assert len(cache) > 0
        # A warm serial re-run replays every probe from the workers' entries.
        warm = pareto_synthesize(
            "Allgather", ring(4), k=1, max_steps=3, strategy="serial", cache=cache
        )
        assert all(p.cache_hit for p in warm.points)


class TestEviction:
    def fill(self, cache, count=5):
        """Store `count` solved candidates with strictly increasing mtimes."""
        import os

        keys = []
        for rounds in range(3, 3 + count):
            result = synthesize(
                make_instance("Allgather", ring(4), 1, 2, rounds), cache=cache
            )
            assert result.is_sat
            key = instance_fingerprint(result.instance)
            keys.append(key)
        for index, key in enumerate(keys):
            path = cache._path(key)
            os.utime(path, (1000.0 + index, 1000.0 + index))
        return keys

    def test_evict_to_max_entries_is_lru_and_deterministic(self, cache):
        keys = self.fill(cache, 5)
        evicted = cache.evict(max_entries=2)
        assert evicted == keys[:3]  # oldest first
        assert len(cache) == 2
        assert cache.lookup_decoded(keys[3], ring(4)) is not None
        assert cache.lookup_decoded(keys[4], ring(4)) is not None
        assert cache.lookup_decoded(keys[0], ring(4)) is None

    def test_hit_refreshes_recency(self, cache):
        import os

        keys = self.fill(cache, 3)
        # Touch the oldest entry via a lookup: it must survive eviction.
        before = cache._path(keys[0]).stat().st_mtime
        assert cache.lookup_decoded(keys[0], ring(4)) is not None
        assert cache._path(keys[0]).stat().st_mtime > before
        evicted = cache.evict(max_entries=1)
        assert keys[0] not in evicted
        assert len(cache) == 1

    def test_evict_max_bytes(self, cache):
        keys = self.fill(cache, 4)
        target = sum(cache._path(k).stat().st_size for k in keys[2:])
        evicted = cache.evict(max_bytes=target)
        assert evicted == keys[:2]
        assert len(cache) == 2

    def test_evict_max_age(self, cache):
        keys = self.fill(cache, 4)  # mtimes 1000..1003
        evicted = cache.evict(max_age_s=10.0, now=1011.5)
        assert evicted == keys[:2]  # entries last used before now-10=1001.5

    def test_no_limits_is_noop(self, cache):
        self.fill(cache, 2)
        assert cache.evict() == []
        assert len(cache) == 2

    def test_negative_limits_rejected(self, cache):
        from repro.engine import CacheError

        with pytest.raises(CacheError):
            cache.evict(max_entries=-1)

    @pytest.mark.parametrize("limit", ["max_entries", "max_bytes", "max_age_s"])
    def test_nan_limits_rejected(self, cache, limit):
        # NaN compares false both ways: a NaN horizon kept no survivor, so
        # the other limits never ran and nothing was evicted.
        from repro.engine import CacheError

        self.fill(cache, 2)
        with pytest.raises(CacheError, match=limit):
            cache.evict(**{limit: float("nan")})
        assert len(cache) == 2

    def test_entries_expose_instance_metadata(self, cache):
        self.fill(cache, 1)
        ((path, entry),) = cache.entries()
        assert entry.instance["collective"] == "Allgather"
        assert entry.instance["topology"] == "ring4"
        assert entry.instance["rounds"] == 3
        assert "Allgather on ring4 C=1 S=2 R=3" == entry.describe_instance()

    def test_old_entries_without_metadata_still_list(self, cache):
        self.fill(cache, 1)
        ((path, entry),) = cache.entries()
        data = json.loads(path.read_text())
        del data["instance"]
        path.write_text(json.dumps(data))
        ((_, reloaded),) = cache.entries()
        assert reloaded.instance is None
        assert "?" in reloaded.describe_instance()


class TestConcurrentMutation:
    """The planning-service prerequisite: threads sharing one cache
    directory may store, look up and evict concurrently without corrupting
    entries or raising."""

    def _entry(self, key_suffix: str):
        from repro.engine import CacheEntry

        key = f"{key_suffix:0>64}"
        return CacheEntry(key=key, status="unsat", backend="test", created_at=1.0)

    def test_threads_store_lookup_evict_without_errors(self, tmp_path):
        import threading

        cache = AlgorithmCache(tmp_path / "shared")
        errors = []
        barrier = threading.Barrier(6)

        def writer(offset):
            try:
                barrier.wait()
                for index in range(30):
                    cache.store(self._entry(f"{offset}{index:x}"))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def evictor():
            try:
                barrier.wait()
                for _ in range(15):
                    cache.evict(max_entries=10)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=evictor) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)

        assert errors == []
        # A final eviction under the lock reaches a consistent, bounded
        # state and every surviving entry is readable.
        cache.evict(max_entries=10)
        assert len(cache) <= 10
        for _, entry in cache.entries():
            assert entry.status == "unsat"

    def test_concurrent_evictions_never_double_report(self, tmp_path):
        """Two evictors pruning to the same limit must not both claim the
        same victim (the fcntl lock serializes index mutations)."""
        import threading

        cache = AlgorithmCache(tmp_path / "shared")
        for index in range(20):
            cache.store(self._entry(f"{index:x}"))
        results = []

        def evictor():
            results.append(cache.evict(max_entries=5))

        threads = [threading.Thread(target=evictor) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)

        evicted_a, evicted_b = results
        assert not (set(evicted_a) & set(evicted_b))
        assert len(cache) == 5

    def test_a_filesystem_without_locks_mutates_unlocked(self, tmp_path, monkeypatch):
        """The lock is best effort: ``ENOLCK`` (a filesystem without lock
        support) lets evict and clear proceed unlocked instead of raising."""
        import errno

        fcntl = pytest.importorskip("fcntl")
        real_flock = fcntl.flock

        def no_locks(fd, operation):
            if operation & fcntl.LOCK_EX:
                raise OSError(errno.ENOLCK, "No locks available")
            return real_flock(fd, operation)

        cache = AlgorithmCache(tmp_path / "shared")
        for index in range(3):
            cache.store(self._entry(f"{index:x}"))
        monkeypatch.setattr(fcntl, "flock", no_locks)
        assert len(cache.evict(max_entries=0)) == 3
        assert len(cache) == 0
        cache.store(self._entry("f"))
        cache.clear()
        assert len(cache) == 0


@pytest.mark.skipif(fcntl is None, reason="advisory locks need fcntl")
class TestMutationLock:
    """``evict`` and ``clear`` serialize on ``<root>/.lock`` when they can
    and proceed unlocked when they cannot — never raising for the lock."""

    def _filled(self, tmp_path, count=3):
        from repro.engine import CacheEntry

        cache = AlgorithmCache(tmp_path / "shared")
        for index in range(count):
            cache.store(CacheEntry(key=f"{index:0>64x}", status="unsat", backend="test"))
        return cache

    def _lock_is_free(self, cache):
        """Take and drop the lock through a separate open file description."""
        with open(cache.root / AlgorithmCache.LOCK_NAME, "a+") as handle:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return False
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            return True

    @pytest.mark.parametrize("operation", ["evict", "clear"])
    @pytest.mark.parametrize("code", ["ENOLCK", "EOPNOTSUPP", "EINVAL", "EIO"])
    def test_a_refused_lock_lets_the_mutation_proceed(
        self, tmp_path, monkeypatch, operation, code
    ):
        import errno

        real_flock = fcntl.flock

        def refuse(fd, how):
            if how & fcntl.LOCK_EX:
                raise OSError(getattr(errno, code), code)
            return real_flock(fd, how)

        cache = self._filled(tmp_path)
        monkeypatch.setattr(fcntl, "flock", refuse)
        if operation == "evict":
            assert len(cache.evict(max_entries=1)) == 2
            assert len(cache) == 1
        else:
            cache.clear()
            assert len(cache) == 0

    def test_without_fcntl_mutations_proceed_unlocked(self, tmp_path, monkeypatch):
        from repro.engine import cache as cache_module

        cache = self._filled(tmp_path)
        monkeypatch.setattr(cache_module, "fcntl", None)
        assert len(cache.evict(max_entries=0)) == 3
        assert not (cache.root / AlgorithmCache.LOCK_NAME).exists()

    def test_an_unopenable_lock_file_lets_the_mutation_proceed(self, tmp_path):
        cache = self._filled(tmp_path)
        (cache.root / AlgorithmCache.LOCK_NAME).mkdir()  # open("a+") fails
        cache.clear()
        assert len(cache) == 0

    def test_the_lock_is_held_during_the_mutation_and_released_after(
        self, tmp_path, monkeypatch
    ):
        cache = self._filled(tmp_path)
        real_evict = cache._evict_locked
        held = []

        def observe(**limits):
            held.append(not self._lock_is_free(cache))
            return real_evict(**limits)

        monkeypatch.setattr(cache, "_evict_locked", observe)
        assert len(cache.evict(max_entries=1)) == 2
        assert held == [True]
        assert self._lock_is_free(cache)

    def test_the_lock_is_released_when_the_mutation_raises(self, tmp_path, monkeypatch):
        cache = self._filled(tmp_path)

        def fail(**limits):
            raise RuntimeError("mid-eviction failure")

        monkeypatch.setattr(cache, "_evict_locked", fail)
        with pytest.raises(RuntimeError, match="mid-eviction failure"):
            cache.evict(max_entries=1)
        assert self._lock_is_free(cache)
        monkeypatch.undo()
        assert len(cache.evict(max_entries=1)) == 2
