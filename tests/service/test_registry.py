"""Plan registry: routing-table construction, persistence, trust boundary."""

import json

import pytest

from repro.core import pareto_synthesize
from repro.engine import AlgorithmCache
from repro.service import (
    PlanRegistry,
    PlanRequest,
    RegistryError,
    build_routing_table,
    routing_key,
)
from repro.topology import ring


@pytest.fixture
def registry(tmp_path):
    return PlanRegistry(
        cache=AlgorithmCache(tmp_path / "algorithms"),
        routes_dir=tmp_path / "routes",
    )


@pytest.fixture(scope="module")
def frontier():
    return pareto_synthesize("Allgather", ring(4), k=1, max_steps=3)


class TestBuildRoutingTable:
    def test_entries_tile_all_sizes(self, frontier):
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        table.verify()  # tiling + plan re-verification
        assert table.entries[0].min_bytes == 0.0
        assert table.entries[-1].max_bytes is None
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

    def test_json_roundtrip(self, frontier):
        from repro.service.registry import RoutingTable

        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        again = RoutingTable.from_json(json.loads(json.dumps(table.to_json())))
        assert [e.to_json() for e in again.entries] == [e.to_json() for e in table.entries]
        assert again.route(1 << 20).plan_name == table.route(1 << 20).plan_name


class TestRegistryPersistence:
    def test_route_miss_then_hit(self, registry, frontier):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        assert registry.route(request) is None
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        registry.install_table(request, table)
        routed = registry.route(request)
        assert routed is not None
        plan, entry, loaded = routed
        assert entry.covers(1 << 20)
        plan.algorithm.verify()
        assert registry.stats()["route_hits"] == 1

    def test_saved_bytes_are_the_sorted_json_of_the_table(self, registry, frontier):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        key = registry.install_table(request, table)
        assert registry._table_path(key).read_text(encoding="utf-8") == json.dumps(
            table.to_json(), sort_keys=True
        )

    def test_a_failed_save_keeps_the_old_table_and_leaves_no_temp(
        self, registry, frontier, monkeypatch
    ):
        from repro.engine import cache as cache_module

        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        key = registry.install_table(request, table)
        path = registry._table_path(key)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cache_module.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            registry.save_table(key, table)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert registry.route(request) is not None

    def test_tables_memoized_until_file_changes(self, registry, frontier):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        key = registry.install_table(request, table)
        first = registry.load_table(key)
        assert registry.load_table(key) is first  # same object: memoized
        # Rewrite the file; the memo must refresh.
        path = registry._table_path(key)
        data = json.loads(path.read_text())
        path.write_text(json.dumps(data))
        import os

        os.utime(path, (path.stat().st_atime, path.stat().st_mtime + 10))
        assert registry.load_table(key) is not first

    def test_tampered_table_is_a_miss(self, registry, frontier):
        request = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
        table = build_routing_table(
            "Allgather", ring(4), frontier.algorithms(), synchrony=1
        )
        key = registry.install_table(request, table)
        registry._tables.clear()  # force a disk reload
        path = registry._table_path(key)
        data = json.loads(path.read_text())
        # Drop every send from one embedded plan: spec re-verification on
        # load must reject the whole table (fail closed, serve a miss).
        name = next(iter(data["plans"]))
        for step in data["plans"][name]["algorithm"]["steps"]:
            step["sends"] = []
        path.write_text(json.dumps(data))
        assert registry.route(request) is None

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
            PlanRegistry(cache=AlgorithmCache(registry.cache.root), routes_dir=tmp_path / "r")
        )(on_fc)
        assert answer.plan["algorithm"]["topology"]["name"] == "fc3"
        assert answer.plan["algorithm"] == fresh.plan["algorithm"]
