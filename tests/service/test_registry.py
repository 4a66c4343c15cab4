"""Plan registry: routing-table construction, the table memo, pinned lookups."""

import pytest

from repro.core import pareto_synthesize
from repro.engine import AlgorithmCache
from repro.interchange.plan import AlgorithmPlan
from repro.service import (
    PlanRegistry,
    PlanRequest,
    RegistryError,
    build_routing_table,
    routing_key,
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


@pytest.fixture(scope="module")
def frontier():
    return pareto_synthesize("Allgather", ring(4), k=1, max_steps=3)


def assert_tiles(table) -> None:
    """The entries cover [0, inf) in order, without gaps or overlaps."""
    lower = 0.0
    for entry in table.entries[:-1]:
        assert entry.min_bytes == lower and entry.max_bytes > entry.min_bytes
        lower = entry.max_bytes
    assert table.entries[-1].min_bytes == lower
    assert table.entries[-1].max_bytes is None


class TestBuildRoutingTable:
    def test_entries_tile_all_sizes(self, frontier):
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        assert_tiles(table)
        for entry in table.entries:
            AlgorithmPlan.from_json(table.plan_json(entry))  # re-verifies
        for size in (1, 512, 1 << 20, 1 << 30):
            assert table.route(size) is not None

    def test_winner_matches_simulator_argmin(self, frontier):
        from repro.runtime import Simulator, lower

        algorithms = frontier.algorithms()
        table = build_routing_table("Allgather", ring(4), algorithms, synchrony=1)
        simulator = Simulator(ring(4))
        for size in table.probe_sizes:
            entry = table.route(size)
            best = min(
                algorithms,
                key=lambda a: simulator.simulate(lower(a), size).total_time_s,
            )
            assert entry.plan_name == best.name

    def test_probe_times_recorded_per_algorithm(self, frontier):
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        for name, times in table.probe_times.items():
            assert len(times) == len(table.probe_sizes)
            assert all(t > 0 for t in times)

    def test_empty_frontier_rejected(self):
        with pytest.raises(RegistryError):
            build_routing_table("Allgather", ring(4), [])


def install(registry, request, table):
    """Memoize ``table`` for ``request`` through a build that keeps it."""
    assert registry.table(
        registry.table_key(request), request.resolve_topology(),
        lambda: (table, True), wait_s=None,
    ) == (table, True)


def unreachable():
    raise AssertionError("built a table the registry holds")


class TestTableMemo:
    def test_route_miss_then_hit(self, registry, frontier, metrics):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        assert registry.route(request) is None
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        install(registry, request, table)
        routed = registry.route(request)
        assert routed is not None
        plan, entry, loaded = routed
        assert entry.covers(1 << 20)
        plan.algorithm.verify()
        assert metrics.breakdown("repro_registry_memo_hits_total", "memo") == {"table": 1}

    def test_a_kept_build_is_a_memo_insert_that_writes_nothing(
        self, registry, frontier, tmp_path
    ):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        install(registry, request, table)
        held, built_here = registry.table(
            registry.table_key(request), ring(4), unreachable, wait_s=None
        )
        assert held is table and not built_here  # the object itself
        assert registry.table_count() == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_fresh_registry_has_no_tables(self, registry, frontier):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        install(
            registry, request,
            build_routing_table("Allgather", ring(4), frontier.algorithms(), synchrony=1),
        )
        fresh = PlanRegistry(cache=registry.cache)
        assert fresh.route(request) is None and fresh.table_count() == 0

    def test_the_memo_drops_the_least_recently_used_table(self, registry, frontier):
        from repro.service.registry import TABLE_MEMO_ENTRIES

        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        requests = [
            PlanRequest("Allgather", "ring:4", size_bytes=64, synchrony=1, root=root)
            for root in range(TABLE_MEMO_ENTRIES + 1)
        ]
        # Distinct keys: a routing key hashes the root whatever the collective.
        for request in requests[:-1]:
            install(registry, request, table)
        assert registry.route(requests[0]) is not None  # now the most recent
        install(registry, requests[-1], table)
        assert registry.table_count() == TABLE_MEMO_ENTRIES
        assert registry.route(requests[1]) is None
        assert all(registry.route(r) is not None for r in [requests[0], *requests[2:]])

    def test_routing_key_is_structural_and_size_free(self):
        key = routing_key("Allgather", ring(4), synchrony=1)
        assert key == routing_key("Allgather", ring(4), synchrony=1)
        assert key != routing_key("Allgather", ring(4), synchrony=2)
        assert key != routing_key("Allgather", ring(6), synchrony=1)
        assert key != routing_key("Broadcast", ring(4), synchrony=1)


class TestPinnedLookups:
    def test_lookup_pinned_round_trips_through_cache(self, registry):
        from repro.core import make_instance, synthesize

        request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        assert registry.lookup_pinned(request) is None
        synthesize(
            make_instance("Allgather", ring(4), 1, 2, 3), cache=registry.cache
        )
        plan = registry.lookup_pinned(request)
        assert plan is not None
        assert plan.algorithm.signature() == (1, 2, 3)

    def test_fabrics_of_equal_structure_share_the_entry_but_not_the_memo(
        self, registry, tmp_path
    ):
        """``ring:3`` and ``fc:3`` have one cache key; each is served the plan
        on its own topology, as a resolver built from nothing serves it."""
        from repro.service import SynthesisResolver

        on_ring = PlanRequest("Allgather", "ring:3", chunks=1, steps=1, rounds=1)
        on_fc = PlanRequest("Allgather", "fc:3", chunks=1, steps=1, rounds=1)
        assert on_ring.request_key() == on_fc.request_key()
        resolver = SynthesisResolver(registry)
        assert [resolver(on_ring).source for _ in range(2)] == ["synthesized", "cache"]

        answer = resolver(on_fc)
        fresh = SynthesisResolver(
            PlanRegistry(cache=AlgorithmCache(registry.cache.root))
        )(on_fc)
        assert answer.plan["algorithm"]["topology"]["name"] == "fc3"
        assert answer.plan["algorithm"] == fresh.plan["algorithm"]
