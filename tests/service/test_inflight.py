"""One identity for in-flight work: ``(content key, fabric name)``.

The broker's jobs, the registry's memos and its table builds in flight are
all keyed by the request's content key and the name of the fabric it
resolves to.  Requests for fabrics of one structure (``ring:3`` and
``fc:3``) never share a job; every answer names the request's own key,
whatever the fault state; a table build is shared with every request that
asks for it while it runs, a build cut by the deadline included, and
leaves nothing in flight behind it, also when it raises.
"""

import threading
import time

import pytest

import repro.core
from repro.engine import AlgorithmCache
from repro.faults import FaultSet, LinkDown
from repro.service import (
    FaultBoard,
    PlanRegistry,
    PlanRequest,
    PlanningService,
    SynthesisResolver,
)
from repro.telemetry import Metrics, set_metrics
from repro.topology import ring


@pytest.fixture
def metrics():
    """A registry of the test's own: the service keeps no counts but its
    series, and the process-wide registry holds every other test's too."""
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def registry(tmp_path):
    return PlanRegistry(cache=AlgorithmCache(tmp_path / "algorithms"))


PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)


def gated(resolver):
    """``resolver`` behind a gate the test opens, so jobs stay queued."""
    gate = threading.Event()

    def call(request, remaining_s):
        assert gate.wait(30.0)
        return resolver(request, remaining_s)

    return call, gate


class WatchedEvent(threading.Event):
    """An event that tells when a thread starts to wait on it."""

    def __init__(self):
        super().__init__()
        self.waited = threading.Event()

    def wait(self, timeout=None):
        self.waited.set()
        return super().wait(timeout)


def watch_the_build(registry) -> threading.Event:
    """Set once a caller waits on the one build in flight."""
    (build,) = registry._building.values()
    build.done = WatchedEvent()
    return build.done.waited


class TestJobKeys:
    def test_ring3_and_fc3_queue_as_two_jobs(self, registry, metrics):
        """One structural request key, two fabrics: each request gets a job
        and a plan of its own fabric."""
        ring3 = PlanRequest("Allgather", "ring:3", chunks=1, steps=1, rounds=1)
        fc3 = PlanRequest("Allgather", "fc:3", chunks=1, steps=1, rounds=1)
        assert ring3.request_key() == fc3.request_key()
        resolver, gate = gated(SynthesisResolver(registry))
        with PlanningService(registry, num_workers=1, resolver=resolver) as service:
            tickets = [service.submit(ring3), service.submit(fc3)]
            gate.set()
            answers = [ticket.wait() for ticket in tickets]
        assert [ticket.coalesced for ticket in tickets] == [False, False]
        assert all(answer.ok for answer in answers)
        names = [answer.plan["algorithm"]["topology"]["name"] for answer in answers]
        assert names == ["ring3", "fc3"]
        assert [a.request_key for a in answers] == [ring3.request_key()] * 2

    def test_a_timeout_on_a_degraded_fabric_carries_the_request_key(self, registry):
        board = FaultBoard()
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))
        resolver, gate = gated(SynthesisResolver(registry, fault_board=board))
        with PlanningService(
            registry, num_workers=1, resolver=resolver, fault_board=board
        ) as service:
            answer = service.request(
                PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=4, deadline_s=0.2)
            )
            gate.set()
        assert answer.status == "timeout"
        assert answer.request_key == PlanRequest(
            "Allgather", "ring:4", chunks=1, steps=3, rounds=4
        ).request_key()

    def test_a_crash_on_a_degraded_fabric_carries_the_request_key(self, registry):
        board = FaultBoard()
        board.register(ring(4), FaultSet.of(LinkDown(0, 1)))

        def resolver(request, remaining_s):
            raise RuntimeError("resolver bug")

        with PlanningService(
            registry, num_workers=1, resolver=resolver, fault_board=board
        ) as service:
            answer = service.request(PINNED)
        assert answer.status == "error" and answer.error_kind == "RuntimeError"
        assert answer.request_key == PINNED.request_key()


class TestSharedBuilds:
    def test_concurrent_cold_dgx1_requests_share_the_cut_table(self, registry, metrics):
        """Two sizes of one DGX-1 table under a 1.5 s deadline on two
        workers: the one that waited takes the table the other's cut sweep
        built, instead of answering from the baseline."""
        sizes = (1 << 22, 1 << 12)
        answers, elapsed = {}, {}
        with PlanningService(registry, num_workers=2) as service:
            barrier = threading.Barrier(len(sizes))

            def ask(size):
                barrier.wait()
                started = time.monotonic()
                answers[size] = service.request(
                    PlanRequest("Allgather", "dgx1", size_bytes=size, deadline_s=1.5)
                )
                elapsed[size] = time.monotonic() - started

            threads = [threading.Thread(target=ask, args=(size,)) for size in sizes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        for size in sizes:
            assert answers[size].ok and elapsed[size] < 1.5, (size, elapsed[size])
        assert sorted(answers[size].source for size in sizes) == ["registry", "synthesized"]
        assert metrics.breakdown("repro_resolver_rung_total", "rung") == {
            "synthesized": 1, "registry": 1,
        }

    def test_a_build_that_raised_leaves_nothing_in_flight(
        self, registry, metrics, monkeypatch
    ):
        """The request whose build raised answers ``error``, the one that
        waited for it answers from the baseline, and the next request
        builds the table again."""
        real = repro.core.pareto_synthesize
        release, calls = threading.Event(), []

        def failing(*args, **kwargs):
            calls.append(args)
            assert release.wait(30.0)
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(repro.core, "pareto_synthesize", failing)
        resolver = SynthesisResolver(registry)
        answers = {}

        def ask(size):
            answers[size] = resolver(
                PlanRequest("Allgather", "ring:4", size_bytes=size, synchrony=1), 30.0
            )

        builder = threading.Thread(target=ask, args=(1 << 20,))
        builder.start()
        while not calls:
            time.sleep(0.01)
        waited = watch_the_build(registry)
        waiter = threading.Thread(target=ask, args=(1 << 10,))
        waiter.start()
        assert waited.wait(30.0)
        release.set()
        for thread in (builder, waiter):
            thread.join(30.0)

        assert len(calls) == 1
        assert answers[1 << 20].status == "error" and "sweep failed" in answers[1 << 20].error
        assert (answers[1 << 10].status, answers[1 << 10].source) == ("ok", "baseline")
        assert registry._building == {} and registry.table_count() == 0

        monkeypatch.setattr(repro.core, "pareto_synthesize", real)
        assert resolver(ROUTED, None).source == "synthesized"
        assert registry.table_count() == 1

    def test_a_waiter_takes_a_table_that_is_not_kept(self, registry):
        """A caller that finds a build of its key in flight takes what that
        build made, a table from a cut sweep included, and builds nothing."""
        key, topology = registry.table_key(ROUTED), ring(4)
        table = object()  # the registry holds and hands out, never reads
        release = threading.Event()

        def build():
            assert release.wait(30.0)
            return table, False

        def unreachable():
            raise AssertionError("a second build of one table")

        built = []
        builder = threading.Thread(
            target=lambda: built.append(registry.table(key, topology, build, wait_s=None))
        )
        builder.start()
        while not registry._building:
            time.sleep(0.01)
        # Until the build ends, a caller with no time left gets nothing.
        assert registry.table(key, topology, unreachable, wait_s=0) == (None, False)
        waited = watch_the_build(registry)
        taken = []
        waiter = threading.Thread(
            target=lambda: taken.append(registry.table(key, topology, unreachable, wait_s=30.0))
        )
        waiter.start()
        assert waited.wait(30.0)
        release.set()
        for thread in (builder, waiter):
            thread.join(30.0)
        assert built == [(table, True)] and taken == [(table, False)]
        assert registry._building == {} and registry.table_count() == 0

    def test_a_stress_of_callers_runs_one_build_per_key_at_a_time(self, registry):
        """Sixteen threads on three keys, switching threads every
        microsecond: no key ever has two builds running, every caller gets
        a table made for its own key, and nothing stays in flight."""
        import random
        import sys

        topology = ring(4)
        keys = [
            registry.table_key(PlanRequest(
                "Allgather", "ring:4", size_bytes=64, synchrony=1, root=root
            ))
            for root in range(3)
        ]
        lock = threading.Lock()
        running = dict.fromkeys(keys, 0)
        most = dict.fromkeys(keys, 0)
        made = {key: set() for key in keys}
        answers = []

        def build_for(key):
            def build():
                with lock:
                    running[key] += 1
                    most[key] = max(most[key], running[key])
                time.sleep(0.0005)
                table = object()  # the registry holds and hands out, never reads
                with lock:
                    running[key] -= 1
                    made[key].add(table)
                # Never kept, as after a cut: the next caller builds again.
                return table, False
            return build

        def caller(seed):
            rng = random.Random(seed)
            for _ in range(40):
                key = rng.choice(keys)
                table, _ = registry.table(key, topology, build_for(key), wait_s=None)
                answers.append((key, table))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert most == dict.fromkeys(keys, 1)
        assert len(answers) == 16 * 40
        assert all(table is not None and table in made[key] for key, table in answers)
        assert registry._building == {} and registry.table_count() == 0
