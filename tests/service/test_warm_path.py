"""The warm path remembers only what cannot have changed.

A long-lived service (pinned-plan memo, table memo, per-fault-state
fabrics, per-request topology and key) must answer exactly like a resolver
built from nothing for every query, whatever happened to the files and the
fault board in between; a warm pinned repeat must cost one ``stat`` and a
warm routed one none — no read, no decode, no verification, no second
parse of the topology spec.  A routing table is a view over the cache: one
that is not in memory (a restart, an eviction) is rebuilt without a solver
call.
"""

import builtins
import json
import os
import shutil

import pytest

from repro.core.algorithm import Algorithm
from repro.engine import AlgorithmCache
from repro.engine.cache import CacheEntry, fingerprint
from repro.faults import FaultSet, LinkDown
from repro.service import (
    FaultBoard,
    FaultRequest,
    PlanRegistry,
    PlanRequest,
    PlanningService,
    ServerThread,
    SynthesisResolver,
    api,
    make_server,
    request_fault,
    request_plan,
)
from repro.service.faults import FABRIC_MEMO_ENTRIES
from repro.service.registry import PINNED_MEMO_ENTRIES, TABLE_MEMO_ENTRIES
from repro.telemetry import Metrics, get_metrics, set_metrics
from repro.topology import ring

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
#: Satisfiable on ring:4 with and without the 0 -> 1 link.
PINNED_SLACK = PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=4)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
QUERIES = (PINNED, PINNED_SLACK, ROUTED)

DEAD_LINK = LinkDown(0, 1)


def _registry(root) -> PlanRegistry:
    return PlanRegistry(cache=AlgorithmCache(root / "algorithms"))


def _solver_calls() -> float:
    return get_metrics().total("repro_solver_calls_total")


def _memo_hits() -> float:
    return get_metrics().value("repro_registry_memo_hits_total", memo="pinned")


def held_table(registry, request, topology=None):
    """The table the registry holds for ``request`` on ``topology`` (the
    request's own fabric by default), or None; builds nothing."""
    if topology is None:
        topology = request.resolve_topology()
    table, _ = registry.table(
        registry.table_key(request, topology=topology), topology,
        lambda: (None, False), wait_s=0,
    )
    return table


def comparable(response) -> tuple:
    """``(status, source, route, plan)`` without what only dates the answer.

    A resolver built from nothing holds no table and rebuilds it from the
    cache, so a routed answer from the memo (``registry``) and one from a
    build (``synthesized``) are the same answer when route and plan are.
    """
    # Through JSON on both sides: the live answers crossed HTTP.
    plan, route = json.loads(json.dumps([response.plan, response.route]))
    if plan is not None:
        for stamp in ("created_at", "solve_time_s", "encode_time_s"):
            plan["provenance"].pop(stamp, None)
    source = response.source
    if route is not None:
        del route["table_built_at"]
        source = "routed"
    return (response.status, source, route, plan)


class Pair:
    """A long-lived service over HTTP, and a from-nothing resolver per query."""

    def __init__(self, tmp_path, url, service) -> None:
        self.root, self.url, self.service = tmp_path / "live", url, service
        self.scratch = tmp_path / "reference"
        self.faults = FaultSet.of()
        self.root.mkdir()

    def agree(self, label):
        """Every query answers the same on both sides; returns the live answers."""
        answers = []
        for request in QUERIES:
            # The reference works on a copy: a miss makes either side write.
            shutil.rmtree(self.scratch, ignore_errors=True)
            shutil.copytree(self.root, self.scratch)
            board = FaultBoard()
            if self.faults:
                board.register(ring(4), self.faults)
            reference = SynthesisResolver(_registry(self.scratch), fault_board=board)(request)
            live = request_plan(self.url, request)
            assert comparable(live) == comparable(reference), (label, request.describe())
            if live.ok:
                algorithm = live.plan_object().algorithm  # re-verified on the way in
                if self.faults:
                    assert (0, 1) not in {(s.src, s.dst) for t in algorithm.steps for s in t.sends}
            answers.append(live)
        return answers

    def entry_path(self, request):
        return self.service.registry.cache._path(request.request_key())


@pytest.fixture
def pair(tmp_path):
    with PlanningService(_registry(tmp_path / "live"), num_workers=2) as service:
        with ServerThread(make_server(service, port=0)) as thread:
            yield Pair(tmp_path, thread.url, service)


def _corrupt_total() -> float:
    return get_metrics().total("repro_cache_corrupt_total")


def test_memoized_service_agrees_with_a_fresh_resolver(pair):
    assert [a.source for a in pair.agree("cold")] == ["synthesized"] * 3
    assert [a.source for a in pair.agree("first read")] == ["cache", "cache", "registry"]
    before = pair.service.stats()["resolver"]["warm_hits"]
    assert [a.source for a in pair.agree("repeat")] == ["cache", "cache", "registry"]
    assert pair.service.stats()["resolver"]["warm_hits"] == before + 3

    # Another valid entry moved over the file: the new one is served.
    path = pair.entry_path(PINNED)
    entry = json.loads(path.read_text())
    entry["algorithm"]["name"] = "moved-in"
    for step in entry["algorithm"]["steps"]:
        step["sends"].reverse()
    (pair.root / "incoming.json").write_text(json.dumps(entry))
    os.replace(pair.root / "incoming.json", path)
    moved = pair.agree("os.replace")[0]
    assert moved.source == "cache" and moved.plan["algorithm"]["name"] == "moved-in"

    # An invalid schedule written in place: dropped and counted, never served.
    entry["algorithm"]["name"] = "torn"
    entry["algorithm"]["steps"][0]["sends"] = []
    path.write_text(json.dumps(entry))
    corrupt = _corrupt_total()
    torn = pair.agree("invalid in place")[0]
    assert torn.source == "synthesized" and torn.plan["algorithm"]["name"] != "torn"
    assert _corrupt_total() == corrupt + 2  # once per side
    assert pair.agree("after the re-solve")[0].source == "cache"

    os.utime(path)
    assert pair.agree("os.utime")[0].source == "cache"

    path.unlink()
    assert pair.agree("unlink")[0].source == "synthesized"
    pair.agree("refill")
    pair.service.registry.cache.evict(max_entries=0)
    assert [a.source for a in pair.agree("cache evict")[:2]] == ["synthesized"] * 2

    # A dead link: degraded plans on both sides, nothing from before it.
    pair.agree("refill")
    registered = request_fault(
        pair.url, FaultRequest("ring:4", "register", (DEAD_LINK.to_json(),))
    )
    assert registered.ok
    pair.faults = FaultSet.of(DEAD_LINK)
    degraded = pair.agree("fault register")
    assert degraded[0].status == "error"  # (1, 2, 3) needs the whole ring
    assert [a.source for a in degraded[1:]] == ["synthesized"] * 2
    assert [a.source for a in pair.agree("degraded repeat")[1:]] == ["cache", "registry"]
    pair.agree("degraded repeat, warm")
    assert request_fault(pair.url, FaultRequest("ring:4", "clear")).ok
    pair.faults = FaultSet.of()
    # Nothing was deleted: the healthy plans are served again, unsolved.
    assert [a.source for a in pair.agree("fault clear")] == ["cache", "cache", "registry"]
    pair.agree("healthy again, warm")

    # Every file gone: every pinned answer is solved again; the table in
    # memory is the one a sweep over an empty cache builds.
    for path in list(pair.root.rglob("*.json")):
        path.unlink()
    assert [a.source for a in pair.agree("every file unlinked")] == [
        "synthesized", "synthesized", "registry",
    ]
    pair.agree("refill")


class _Counts:
    """Calls of the four things a warm answer must not repeat."""

    def __init__(self, monkeypatch) -> None:
        self.calls = {"stat": 0, "open": 0, "parse_topology": 0, "full_verify": 0}
        self._wrap(monkeypatch, os, "stat", "stat")
        self._wrap(monkeypatch, builtins, "open", "open")
        self._wrap(monkeypatch, api, "parse_topology", "parse_topology")
        # Runs once per full Algorithm.verify(), never on its witness shortcut.
        self._wrap(monkeypatch, Algorithm, "check_bandwidth", "full_verify")

    def _wrap(self, monkeypatch, owner, name, counter) -> None:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls[counter] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def reset(self) -> None:
        for name in self.calls:
            self.calls[name] = 0


@pytest.mark.parametrize(
    "request_, stats", [(PINNED, 1), (ROUTED, 0)], ids=["pinned", "routed"]
)
def test_a_warm_repeat_costs_one_stat(tmp_path, monkeypatch, request_, stats):
    """A pinned plan is signed with its cache entry; a table has no file."""
    with PlanningService(_registry(tmp_path), num_workers=1) as service:
        for _ in range(2):  # solve it, then read it back once
            assert service.request(request_).ok
        counts = _Counts(monkeypatch)
        # As the HTTP handler does it: a new request object per message.
        warm = service.request(PlanRequest.from_json(request_.to_json()))
        assert warm.source in ("cache", "registry")
        assert counts.calls == {
            "stat": stats, "open": 0, "parse_topology": 1, "full_verify": 0,
        }
        # The same object again: its topology and key are already known.
        counts.reset()
        assert service.request(request_).ok
        assert counts.calls == {
            "stat": stats, "open": 0, "parse_topology": 0, "full_verify": 0,
        }


def test_a_cold_pinned_request_reads_the_cache_once(tmp_path):
    """A pinned request with no entry file is looked up once, by the solve,
    which stores what it found; the next request reads that entry."""
    fresh = Metrics()
    previous = set_metrics(fresh)
    try:
        with PlanningService(_registry(tmp_path), num_workers=1) as service:
            assert service.request(PINNED).source == "synthesized"
            cache = service.stats()["engine"]["cache"]
            assert (cache["hits"], cache["misses"], cache["entries"]) == (0, 1, 1)
            assert service.request(PINNED).source == "cache"
            cache = service.stats()["engine"]["cache"]
            assert (cache["hits"], cache["misses"]) == (1, 1)
    finally:
        set_metrics(previous)


def test_a_pinned_unsat_verdict_is_memoized(tmp_path, monkeypatch):
    """An UNSAT entry is held like a plan: read once, then one ``stat`` per
    repeat, with no instance built and no solve."""
    import repro.core

    unsat = PlanRequest("Allgather", "ring:4", chunks=1, steps=1, rounds=1)
    fresh = Metrics()
    previous = set_metrics(fresh)
    try:
        with PlanningService(_registry(tmp_path), num_workers=1) as service:

            def answer():
                response = service.request(unsat)
                assert response.status == "error"
                assert response.error == f"{unsat.describe()} is unsatisfiable"

            def hits():
                return service.stats()["engine"]["cache"]["hits"]

            answer()  # solved, and the verdict stored
            assert hits() == 0
            answer()  # read from the file, and held
            assert hits() == 1

            def no_solve(*args, **kwargs):
                raise AssertionError("a memoized UNSAT verdict was solved again")

            monkeypatch.setattr(repro.core, "make_instance", no_solve)
            monkeypatch.setattr(repro.core, "synthesize", no_solve)
            counts = _Counts(monkeypatch)
            answer()
            assert counts.calls == {
                "stat": 1, "open": 0, "parse_topology": 0, "full_verify": 0,
            }
            assert hits() == 2 and _memo_hits() == 1
            assert service.registry.lookup_pinned(unsat) is None
    finally:
        set_metrics(previous)


def test_memos_are_bounded(tmp_path):
    registry = _registry(tmp_path)
    with PlanningService(registry, num_workers=1) as service:
        assert service.request(PINNED).ok
        solved = json.loads(registry.cache._path(PINNED.request_key()).read_text())
        # Allgather ignores the root, so the schedule is valid under every
        # one of these keys.
        for root in range(1, 10 * PINNED_MEMO_ENTRIES + 1):
            key = fingerprint("Allgather", ring(4), 1, 2, 3, root=root)
            registry.cache.store(CacheEntry.from_json(dict(solved, key=key)))
            request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, root=root)
            assert registry.lookup_pinned_json(request) is not None
            assert len(registry._pinned) <= PINNED_MEMO_ENTRIES
        assert len(registry._pinned) == PINNED_MEMO_ENTRIES
        # The most recent ones stayed: a repeat is answered from memory.
        warm = _memo_hits()
        assert registry.lookup_pinned_json(request) is not None
        assert _memo_hits() == warm + 1

        board = service.fault_board
        for bandwidth in range(1, 10 * FABRIC_MEMO_ENTRIES + 1):
            routed = PlanRequest("Allgather", f"ring:4:{bandwidth}", size_bytes=64)
            fabric = board.fabric(routed)
            for root in range(FABRIC_MEMO_ENTRIES + 1):
                fabric.key((root,), lambda: "key")
            assert len(fabric.keys) <= FABRIC_MEMO_ENTRIES
            assert len(board._fabrics) <= FABRIC_MEMO_ENTRIES


def test_an_evicted_table_comes_back_without_a_solver_call(tmp_path):
    """One table more than the memo holds: the least recently used one is
    dropped, and its next request rebuilds it from the cache unsolved."""
    registry = _registry(tmp_path)
    resolver = SynthesisResolver(registry)
    # The synchrony is part of the routing key; the sweeps share the cache.
    tables = [
        PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=k)
        for k in range(TABLE_MEMO_ENTRIES + 1)
    ]
    first = resolver(tables[0])
    assert first.source == "synthesized"
    entries = held_table(registry, tables[0]).entries
    for request in tables[1:]:
        assert resolver(request).ok
    assert registry.table_count() == TABLE_MEMO_ENTRIES
    assert held_table(registry, tables[0]) is None
    assert held_table(registry, tables[1]) is not None

    calls = _solver_calls()
    again = resolver(tables[0])
    assert again.source == "synthesized" and _solver_calls() == calls
    assert comparable(again) == comparable(first)
    assert held_table(registry, tables[0]).entries == entries
    assert resolver(tables[0]).source == "registry"


def test_fabrics_of_one_structure_keep_their_own_tables(tmp_path):
    """``ring:3`` and ``fc:3`` are one structure, so one routing key, but a
    routed plan embeds its fabric: ``fc:3`` after ``ring:3`` is built from
    the cache entries the first sweep left, with no solver call, and each
    fabric is then answered from its own table under its own name."""
    resolver = SynthesisResolver(_registry(tmp_path))
    ring3 = PlanRequest("Allgather", "ring:3", size_bytes=1 << 20)
    fc3 = PlanRequest("Allgather", "fc:3", size_bytes=1 << 20)
    assert resolver.registry.table_key(ring3) == resolver.registry.table_key(fc3)

    first = resolver(ring3)
    assert first.source == "synthesized"
    assert first.plan["algorithm"]["topology"]["name"] == "ring3"
    calls = _solver_calls()
    second = resolver(fc3)
    assert second.source == "synthesized" and _solver_calls() == calls
    assert second.plan["algorithm"]["topology"]["name"] == "fc3"
    for request, name in ((ring3, "ring3"), (fc3, "fc3")):
        warm = resolver(request)
        assert warm.source == "registry"
        assert warm.plan["algorithm"]["topology"]["name"] == name


#: The routed tables of the ``service_mix`` benchmark (k = 2, the default).
MIX_TABLES = (
    ("Allgather", "ring:4"), ("Allgather", "ring:6"),
    ("Allgather", "ring:8"), ("Allreduce", "ring:6"),
)


def test_a_restart_rebuilds_every_table_from_the_cache(tmp_path):
    """A service restarted over a warm cache answers each table's first
    routed request with the entries it served before, with no solver call,
    and writes nothing outside the cache."""
    cache_dir = tmp_path / "algorithms"
    requests = [PlanRequest(c, t, size_bytes=1 << 20) for c, t in MIX_TABLES]
    with PlanningService(_registry(tmp_path), num_workers=1) as before:
        assert all(before.request(r).source == "synthesized" for r in requests)
        tables = [held_table(before.registry, r) for r in requests]
    files = sorted(tmp_path.rglob("*"))
    assert all(cache_dir in path.parents or path == cache_dir for path in files)

    calls = _solver_calls()
    with PlanningService(_registry(tmp_path), num_workers=1) as after:
        for request, table in zip(requests, tables):
            answer = after.request(request)
            assert answer.source == "synthesized", request.describe()
            rebuilt = held_table(after.registry, request)
            assert rebuilt.entries == table.entries, request.describe()
            assert rebuilt.plans.keys() == table.plans.keys()
            assert answer.route["plan"] == table.route(1 << 20).plan_name
        assert [after.request(r).source for r in requests] == ["registry"] * 4
    assert _solver_calls() == calls
    assert sorted(tmp_path.rglob("*")) == files
