"""service_mix: a closed loop of two clients against ``repro serve``.

``python -m repro serve --port 0 --workers 2`` runs as a child process; this
process is the clients (2 threads, one per core; each sends its next request
only after the previous one is answered).  The mix is drawn from the seed:
49 % warm pinned, 49 % warm routed, 2 % cold pinned small instances from a
frozen list of verified-SAT keys, each placed at the same index in both
clients' streams so broker coalescing fires.  Solver share is near zero:
HTTP, the api codec, broker, resolver, registry and cache reads do the work.
"""

from __future__ import annotations

import gc
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from checker import check
from harness import BENCH_DIR, ROOT, Context, Measurement, quantile, row_summary

IMPORTS = ("repro.service", "repro.cli.topologies")
#: The program under test runs as a child process: count it in peak_rss_mb.
SERVER_CHILD = True

#: Requests per timed batch of one client; ``work_s`` is the median batch.
BATCH = 250
#: Blocks of 100 requests generated per client (more than a run can send).
BLOCKS = 160
#: Requests the in-process walk of the onion sends through each layer.
ONION_REQUESTS = 400


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` in its own process group."""

    def __init__(self, directory) -> None:
        self.cache_dir = directory / "algorithms"
        self.routes_dir = directory / "routes"
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(self.cache_dir),
            REPRO_PERF_DIR=str(directory / "perf"),
        )
        self._stderr = open(directory / "server.stderr", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
             "--cache-dir", str(self.cache_dir), "--routes-dir", str(self.routes_dir)],
            env=env, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            start_new_session=True,  # pool workers of cold sweeps die with the group
        )
        banner = self.process.stdout.readline()
        match = re.search(r"http://\S+", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.url = match.group(0)

    def stop(self) -> None:
        """Terminate the whole group and wait until every member has ended."""
        group = self.process.pid
        _signal_group(group, signal.SIGTERM)
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            _signal_group(group, signal.SIGKILL)
            self.process.wait()
        # Pool workers of a cold sweep are grandchildren: init reaps them.
        if not _group_gone(group, timeout=5):
            _signal_group(group, signal.SIGKILL)
            _group_gone(group, timeout=5)
        self.process.stdout.close()
        self._stderr.close()


def _signal_group(group: int, signum: int) -> None:
    try:
        os.killpg(group, signum)
    except ProcessLookupError:
        pass


def _group_gone(group: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


# ----------------------------------------------------------------------
# Set-up: start the server, warm the pinned keys and the routing tables
# ----------------------------------------------------------------------
@dataclass
class State:
    server: Server
    warm_pinned: list
    warm_routed: list
    cold_keys: list
    mix: dict
    deadline_probe: dict
    cold_routed_s: List[float] = field(default_factory=list)


def setup(ctx: Context) -> State:
    import json

    from repro.service import PlanRequest, request_plan

    spec = ctx.expected["service_mix"]
    server = Server(ctx.sandbox.fresh_dir("server"))
    try:
        warm_pinned = [
            PlanRequest(collective, topology, chunks=c, steps=s, rounds=r)
            for (collective, topology, c, s, r) in spec["warm_pinned"]
        ]
        for request in warm_pinned:
            response = request_plan(server.url, request)
            if not response.ok:
                raise RuntimeError(f"cannot warm {request.describe()}: {response.error}")
        warm_routed = []
        cold_routed_s = []
        for (collective, topology) in spec["warm_routed"]:
            for exponent in spec["routed_sizes_log2"]:
                warm_routed.append(PlanRequest(collective, topology, size_bytes=1 << exponent))
            started = time.perf_counter()
            response = request_plan(server.url, warm_routed[-1])
            cold_routed_s.append(time.perf_counter() - started)
            if not response.ok:
                raise RuntimeError(f"cannot build the {collective}/{topology} table")
        with open(BENCH_DIR / "cold_keys.json", encoding="utf-8") as handle:
            cold_keys = [tuple(key) for key in json.load(handle)]
    except BaseException:
        server.stop()
        raise
    return State(server, warm_pinned, warm_routed, cold_keys, spec["mix_per_100"],
                 spec["deadline_probe"], cold_routed_s)


def teardown(state: State) -> None:
    state.server.stop()


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
def build_streams(state: State, rng: random.Random) -> List[List[Tuple[str, object]]]:
    """Two aligned streams of ``(kind, request)``, 100 requests per block.

    Every block holds the mix exactly; the cold slots and their keys are the
    same in both streams, the warm picks are drawn per client.
    """
    from repro.service import PlanRequest

    cold_order = list(state.cold_keys)
    rng.shuffle(cold_order)
    cold = iter(cold_order)
    kinds = [kind for kind, count in state.mix.items() for _ in range(count)]
    pools = {"warm_pinned": state.warm_pinned, "warm_routed": state.warm_routed}
    streams: List[List[Tuple[str, object]]] = [[], []]
    for _ in range(BLOCKS):
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "cold_pinned":
                key = next(cold, None)
                if key is None:   # list exhausted: repeats are served from the cache
                    cold = iter(cold_order)
                    key = next(cold)
                collective, topology, c, s, r = key
                request = PlanRequest(collective, topology, chunks=c, steps=s, rounds=r)
                for stream in streams:
                    stream.append((kind, request))
            else:
                for stream in streams:
                    stream.append((kind, rng.choice(pools[kind])))
    return streams


@dataclass
class Sample:
    kind: str
    request: object
    start: float
    end: float
    status: str
    source: str
    cost: Optional[dict]   # the answer's cost block: must not change for one request
    plan: Optional[dict]   # the full bundle, kept for the answers judge() checks


def _plain_call(url: str, request):
    from repro.service import request_plan

    return request_plan(url, request)


def closed_loop(state: State, streams, seconds: float, call=_plain_call) -> List[List[Sample]]:
    """Each client walks its stream until the measuring time is used up."""
    results: List[List[Sample]] = [[] for _ in streams]
    failures: List[str] = []
    barrier = threading.Barrier(len(streams))

    def client(index: int) -> None:
        kept = set()
        barrier.wait()
        deadline = time.perf_counter() + seconds
        for kind, request in streams[index]:
            started = time.perf_counter()
            if started >= deadline:
                break
            try:
                response = call(state.server.url, request)
            except Exception as exc:  # a request that raises is a failed request
                failures.append(f"{request.describe()}: {exc}")
                continue
            ended = time.perf_counter()
            # Plans are checked after the timed phase: every cold answer and
            # each client's first answer per warm key.
            keep = kind == "cold_pinned" or id(request) not in kept
            kept.add(id(request))
            results[index].append(Sample(
                kind, request, started, ended, response.status, response.source,
                (response.plan or {}).get("cost"), response.plan if keep else None,
            ))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    gc.collect()   # once, before the timed phase: per-op collection would pace a ms-scale loop
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError(f"{len(failures)} requests raised, first: {failures[0]}")
    return results


# ----------------------------------------------------------------------
# Checking the answers
# ----------------------------------------------------------------------
_EXPECTED_SOURCES = {
    "warm_pinned": {"cache"},
    "warm_routed": {"registry"},
    "cold_pinned": {"synthesized", "cache"},
}


def _check_plan(request, plan: dict, topologies: dict) -> None:
    """The served schedule implements the collective on the requested fabric."""
    from repro.cli.topologies import parse_topology

    topology = topologies.setdefault(request.topology, parse_topology(request.topology))
    algorithm = plan["algorithm"]
    steps = [
        (step["rounds"], [(t["chunk"], t["src"], t["dst"], t.get("op", "copy"))
                          for t in step["sends"]])
        for step in algorithm["steps"]
    ]
    if request.mode == "pinned":
        rounds = sum(r for r, _ in steps)
        per_node = request.chunks
        chunks = per_node if request.collective == "Broadcast" else per_node * topology.num_nodes
        if (len(steps), rounds, algorithm["num_chunks"]) != (request.steps, request.rounds, chunks):
            raise ValueError("plan does not have the pinned (C, S, R)")
    check(
        request.collective, topology.num_nodes, algorithm["num_chunks"], request.root, steps,
        [(c.bandwidth, list(c.links)) for c in topology.constraints],
    )


def judge(results: List[List[Sample]], measurement: Measurement) -> None:
    topologies: dict = {}
    first_cost: Dict[int, object] = {}
    for samples in results:
        for sample in samples:
            measurement.attempted += 1
            label = f"{sample.kind} {sample.request.describe()}"
            if sample.status != "ok":
                measurement.fail(f"{label}: status {sample.status}")
            elif sample.source not in _EXPECTED_SOURCES[sample.kind]:
                measurement.fail(f"{label}: served from {sample.source}")
            elif first_cost.setdefault(id(sample.request), sample.cost) != sample.cost:
                measurement.fail(f"{label}: the answer changed between requests")
            elif sample.plan is not None:
                try:
                    _check_plan(sample.request, sample.plan, topologies)
                except Exception as exc:  # whatever a check raises, the plan is wrong
                    measurement.fail(f"{label}: plan rejected: {exc}")


def summarize(results: List[List[Sample]], measurement: Measurement) -> None:
    """Each client's run is cut into batches of ``BATCH`` requests; every
    timing is the median over batches of the batch's figure.

    Median, not the best batch the row workloads use: two clients and the
    server's threads share two cores, so no batch runs undisturbed and the
    fastest one is the luckiest, not the cleanest.
    """
    walls, p50s, p90s = [], [], []
    for samples in results:
        # A run too short for one full batch (--quick) is a single short one.
        for i in range(0, max(len(samples) - BATCH, 0) + 1, BATCH):
            batch = samples[i:i + BATCH]
            latencies = [s.end - s.start for s in batch]
            walls.append(batch[-1].end - batch[0].start)
            p50s.append(quantile(latencies, 0.5))
            p90s.append(quantile(latencies, 0.9))
    measurement.work_s = statistics.median(walls)
    measurement.op_typical_s = statistics.median(p50s)
    for kind in _EXPECTED_SOURCES:
        values = [s.end - s.start for samples in results for s in samples if s.kind == kind]
        if values:
            measurement.rows[kind] = row_summary(values)
    latencies = [s.end - s.start for samples in results for s in samples]
    wall = max(samples[-1].end for samples in results) - min(
        samples[0].start for samples in results
    )
    # The whole run pooled: what a user saw, host noise included (advisory).
    measurement.facts = {
        "plan_latency_s.p50_batches": statistics.median(p50s),
        "plan_latency_s.p90_batches": statistics.median(p90s),
        "plan_latency_s.p50": quantile(latencies, 0.5),
        "plan_latency_s.p90": quantile(latencies, 0.9),
        "plan_latency_s.p99": quantile(latencies, 0.99),
        "plans_per_s": len(latencies) / wall,
        "requests": len(latencies),
        "batches": len(walls),
    }


def measure(state: State, seconds: float, rng) -> Measurement:
    measurement = Measurement()
    results = closed_loop(state, build_streams(state, rng), seconds)
    judge(results, measurement)
    summarize(results, measurement)
    return measurement


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _traced_call(rec):
    """``request_plan`` as its three calls, each in a span; server-side
    figures carried by the response become child spans of the round trip."""
    import json
    import urllib.request

    from repro.service import PlanResponse

    counter = iter(range(1 << 30))

    def call(url: str, request):
        with rec.span("op", op=f"request#{next(counter)}"):
            with rec.span("service.api.encode"):
                body = json.dumps(request.to_json()).encode("utf-8")
            with rec.span("service.http.roundtrip") as http:
                post = urllib.request.Request(
                    url + "/v1/plan", data=body,
                    headers={"Content-Type": "application/json"}, method="POST",
                )
                with urllib.request.urlopen(post, timeout=60) as reply:
                    raw = reply.read()
            with rec.span("service.api.decode"):
                response = PlanResponse.from_json(json.loads(raw.decode("utf-8")))
            start = rec.spans[http]["start"]
            broker = rec.add("service.broker.wait", start, start + response.wait_time_s, parent=http)
            rec.add("service.resolver.resolve", start, start + response.solve_time_s, parent=broker)
        return response

    return call


def _walk_onion(state: State, rng, rec) -> None:
    """The warm mix through each layer in this process, innermost first."""
    from repro.engine import AlgorithmCache
    from repro.service import PlanRegistry, PlanRequest, PlanResponse, PlanningService

    registry = PlanRegistry(cache=AlgorithmCache(state.server.cache_dir),
                            routes_dir=state.server.routes_dir)
    requests = [rng.choice(state.warm_pinned + state.warm_routed) for _ in range(ONION_REQUESTS)]
    with PlanningService(registry, num_workers=2) as service:
        for index, request in enumerate(requests):
            op = f"onion#{index}"
            with rec.span("service.registry.lookup", op=op):
                if request.mode == "pinned":
                    registry.lookup_pinned(request)
                else:
                    registry.route(request)
            with rec.span("service.resolver.call", op=op):
                response = service.resolver(request, None)
            with rec.span("service.broker.roundtrip", op=op):
                service.request(request)
            with rec.span("service.api.codec", op=op):
                PlanRequest.from_json(request.to_json())
                PlanResponse.from_json(response.to_json())


def _deadline_probe(state: State) -> Tuple[float, float]:
    """Cold routed DGX-1 requests under a short deadline: (ok share, answer s)."""
    from repro.service import PlanRequest, request_plan

    probe = state.deadline_probe
    answers: List[Tuple[float, bool]] = []

    def ask(exponent: int) -> None:
        request = PlanRequest(probe["collective"], probe["topology"],
                              size_bytes=1 << exponent, deadline_s=probe["deadline_s"])
        started = time.perf_counter()
        response = request_plan(state.server.url, request)
        answers.append((time.perf_counter() - started, response.ok))

    threads = [threading.Thread(target=ask, args=(e,)) for e in probe["sizes_log2"]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (sum(ok for _, ok in answers) / len(answers),
            statistics.median(seconds for seconds, _ in answers))


def trace(state: State, seconds: float, rng, rec) -> Tuple[Measurement, dict]:
    from repro.service import fetch_stats

    measurement = Measurement()
    streams = build_streams(state, rng)
    # The deadline probe and the onion take about 5 s; the loops share the rest.
    phase = max(2.0, (seconds - 5.0) / 2)
    plain = closed_loop(state, streams, phase)
    offset = max(len(samples) for samples in plain)
    rest = [stream[offset:] for stream in streams]
    traced = closed_loop(state, rest, phase, call=_traced_call(rec))
    judge(plain + traced, measurement)
    summarize(plain, measurement)
    _walk_onion(state, rng, rec)
    stats = fetch_stats(state.server.url)
    ok_share, answer_s = _deadline_probe(state)

    median = lambda name: statistics.median(rec.durations(name))  # noqa: E731
    plain_latencies = [s.end - s.start for samples in plain for s in samples]
    traced_latencies = [s.end - s.start for samples in traced for s in samples]
    cold = [s.end - s.start for samples in plain + traced for s in samples
            if s.kind == "cold_pinned" and s.source == "synthesized"]
    rungs = stats["resolver"]["rungs"]
    layers = {
        "service.api.codec_s": median("service.api.codec"),
        "service.registry.lookup_s": median("service.registry.lookup"),
        "service.resolver.resolve_s": median("service.resolver.call"),
        "service.broker.roundtrip_s": median("service.broker.roundtrip"),
        "service.http.roundtrip_s": median("service.http.roundtrip"),
        "service.broker.self_s": median("service.broker.roundtrip") - median("service.resolver.call"),
        "service.http.self_s": median("service.http.roundtrip") - median("service.broker.wait"),
        "service.broker.coalesced": stats["broker"]["coalesced"],
        "service.cold_plan_s.pinned": statistics.median(cold),
        "service.cold_plan_s.routed": statistics.median(state.cold_routed_s),
        "service.latency_s.p50": measurement.facts["plan_latency_s.p50_batches"],
        "service.latency_s.p90": measurement.facts["plan_latency_s.p90_batches"],
        "service.latency_s.p99": quantile(plain_latencies, 0.99),
        "service.deadline.ok_share": ok_share,
        "service.deadline.answer_s": answer_s,
        "trace.coverage": rec.coverage("op"),
        "trace.overhead_ratio": statistics.median(traced_latencies) / statistics.median(plain_latencies),
    }
    for rung in ("cache", "registry", "synthesized", "baseline"):
        layers[f"service.resolver.rung.{rung}"] = rungs.get(rung, 0)
    return measurement, layers
