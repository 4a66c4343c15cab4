"""``repro`` — the command-line front door to the synthesis toolchain.

Subcommands
-----------
``repro synthesize``
    Solve one SynColl candidate (collective, topology, C/S/R), writing the
    outcome through the persistent algorithm cache and optionally exporting
    the algorithm as MSCCL-style XML or a plan bundle.
``repro pareto``
    Run Pareto-Synthesize (Algorithm 1) with any engine strategy
    (serial / incremental / parallel / speculative), print the
    Table 4/5-style rows and optionally export every frontier algorithm.
``repro export``
    Emit a cached (or plan-bundled) algorithm as XML or a plan.
``repro import``
    Parse an XML/plan file, re-verify it against the collective spec, and
    optionally store it into the cache.
``repro cache ls|show|verify|evict|clear``
    Inspect and manage the persistent cache, including the roadmap's
    LRU size-limit eviction (``cache evict --max-entries N``).
``repro serve``
    Run the planning service: an HTTP endpoint brokering concurrent plan
    requests with coalescing, backed by the registry and a worker pool.
``repro request``
    Client for ``repro serve``: ask a running service for a plan (pinned
    ``-C/-S/-R`` candidate or ``--size``-routed), or answer locally with
    ``--local`` when no server is up.  ``--stats`` instead pretty-prints
    the service's ``/v1/stats``: counts read from its metrics registry
    (broker coalescing, resolver ladder rungs, bounds-ledger work, cache
    hit rate) and its queue depth.
``repro fault``
    Register, clear or inspect fabric faults on a running service
    (``--link-down``, ``--rank-down``, ``--link-degraded``).  The next
    request replans against the degraded topology; nothing is deleted,
    since every cached plan and routing table is keyed by the fabric it
    was built for, so ``clear`` serves the healthy plans again warm.
    ``--preview`` derives the degraded topology locally without a server.
``repro run``
    Execute an imported plan/XML file on the functional executor and the
    alpha-beta simulator: verified correctness plus estimated times.
``repro trace``
    Summarize a Chrome trace-event JSON written by ``synthesize --trace``
    or ``pareto --trace`` (span counts, totals, slowest probes); ``--top N``
    lists the slowest individual spans and ``--diff OTHER.json`` compares
    two traces phase by phase.

Every subcommand exits 0 on success and 1 on failure, printing errors to
stderr; ``repro synthesize`` additionally exits 1 when the candidate is
UNSAT/UNKNOWN so shell pipelines can branch on satisfiability.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .topologies import TOPOLOGY_HELP, TopologySpecError, parse_topology


class CliError(Exception):
    """Raised for user-facing command failures (printed, exit code 1)."""


# ----------------------------------------------------------------------
# Shared option groups
# ----------------------------------------------------------------------
def _add_topology_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-t", "--topology", required=True, help=TOPOLOGY_HELP)


def _add_cache_options(
    parser: argparse.ArgumentParser, *, allow_disable: bool = False
) -> None:
    group = parser.add_argument_group("cache")
    group.add_argument(
        "--cache-dir",
        default=None,
        help="algorithm cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-sccl/algorithms)",
    )
    if allow_disable:
        # Only commands where the cache is an optimization (not the object
        # being operated on) get --no-cache; export/import/cache subcommands
        # would silently contradict it.
        group.add_argument(
            "--no-cache", action="store_true", help="bypass the algorithm cache entirely"
        )


def _limit(kind):
    """An argparse type: ``kind(text)``, refused when negative or NaN."""

    def parse(text: str):
        try:
            value = kind(text)
            if value >= 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")

    return parse


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--time-limit", type=_limit(float), default=None, metavar="S",
        help="wall-clock limit in seconds for the whole command "
        "(exceeded -> unknown, or a pareto frontier cut where it ran out)",
    )
    group.add_argument(
        "--conflict-limit", type=_limit(int), default=None, metavar="N",
        help="per-solve conflict budget (exceeded -> unknown)",
    )


def _resolve_cache(args):
    from ..engine.cache import AlgorithmCache, default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    directory = args.cache_dir if args.cache_dir else default_cache_dir()
    return AlgorithmCache(directory)


def _require_cache(args):
    """Cache commands operate on a directory even when it does not exist yet."""
    from ..engine.cache import AlgorithmCache, default_cache_dir

    directory = args.cache_dir if args.cache_dir else default_cache_dir()
    return AlgorithmCache(directory)


def _topology(args):
    try:
        return parse_topology(args.topology)
    except TopologySpecError as exc:
        raise CliError(str(exc)) from exc


# ----------------------------------------------------------------------
# repro synthesize
# ----------------------------------------------------------------------
def _cmd_synthesize(args) -> int:
    from ..core import make_instance, synthesize

    topology = _topology(args)
    try:
        instance = make_instance(
            args.collective, topology, args.chunks, args.steps, args.rounds,
            root=args.root,
        )
    except Exception as exc:
        raise CliError(str(exc)) from exc

    cache = _resolve_cache(args)
    tracer = _make_tracer(args)
    with _maybe_tracing(tracer):
        result = synthesize(
            instance,
            time_limit=args.time_limit,
            conflict_limit=args.conflict_limit,
            cache=cache,
            name=args.name,
        )
    _write_trace(tracer, args)
    print(result.summary())
    if result.algorithm is not None:
        if not args.quiet:
            print()
            print(result.algorithm.describe())
        _export_algorithm(result, args)
        return 0
    return 1


def _make_tracer(args):
    """A recording tracer when ``--trace FILE`` was given, else ``None``."""
    if not getattr(args, "trace", None):
        return None
    from ..telemetry import Tracer

    return Tracer()


def _maybe_tracing(tracer):
    if tracer is None:
        import contextlib

        return contextlib.nullcontext()
    from ..telemetry import tracing

    return tracing(tracer)


def _write_trace(tracer, args) -> None:
    if tracer is None:
        return
    tracer.write_chrome_trace(args.trace)
    print(f"wrote Chrome trace to {args.trace} (load it in ui.perfetto.dev)")


def _export_algorithm(result, args) -> None:
    algorithm = result.algorithm
    if getattr(args, "xml", None):
        from ..interchange import write_msccl_xml

        path = write_msccl_xml(algorithm, args.xml)
        print(f"wrote MSCCL-style XML to {path}")
    if getattr(args, "plan", None):
        from ..interchange import plan_from_result, write_plan

        path = write_plan(plan_from_result(result), args.plan)
        print(f"wrote plan bundle to {path}")


# ----------------------------------------------------------------------
# repro pareto
# ----------------------------------------------------------------------
def _cmd_pareto(args) -> int:
    from ..core import pareto_synthesize
    from ..evaluation import export_frontier_algorithms, format_table

    topology = _topology(args)
    cache = _resolve_cache(args)
    tracer = _make_tracer(args)
    try:
        with _maybe_tracing(tracer):
            frontier = pareto_synthesize(
                args.collective,
                topology,
                args.k,
                root=args.root,
                max_steps=args.max_steps,
                max_chunks=args.max_chunks,
                time_limit=args.time_limit,
                conflict_limit=args.conflict_limit,
                strategy=args.strategy,
                max_workers=args.max_workers,
                cache=cache,
                bounds="off" if args.no_bounds else "baseline",
            )
    except Exception as exc:
        raise CliError(str(exc)) from exc
    _write_trace(tracer, args)

    title = (
        f"{frontier.collective} on {frontier.topology_name} "
        f"(k={frontier.k}, strategy={frontier.strategy}, "
        f"backend={frontier.backend}, bounds={frontier.bounds})"
    )
    rows = frontier.table_rows()
    if rows:
        print(format_table(rows, title=title))
    else:
        print(f"{title}: no satisfiable candidates found")
    if frontier.note:
        print(f"note: {frontier.note}")
    print(
        f"total {frontier.total_time:.2f}s, engine {frontier.engine_stats}"
        + (" [step budget exhausted]" if frontier.exhausted_steps else "")
    )
    if args.export_dir:
        written = export_frontier_algorithms(
            frontier, args.export_dir, formats=(args.export_format,)
        )
        print(f"exported {len(written)} file(s) to {args.export_dir}")
    return 0 if rows else 1


# ----------------------------------------------------------------------
# repro export
# ----------------------------------------------------------------------
def _cmd_export(args) -> int:
    from ..interchange import (
        plan_from_algorithm,
        read_plan,
        to_msccl_xml,
        write_plan,
    )

    if args.plan_input:
        plan = read_plan(args.plan_input)
        algorithm = plan.algorithm
        provenance = dict(plan.provenance)
    else:
        if not args.topology:
            raise CliError("--topology is required unless exporting from --plan-input")
        topology = _topology(args)
        cache = _require_cache(args)
        algorithm = cache.load_algorithm(
            args.collective, topology, args.chunks, args.steps, args.rounds,
            root=args.root,
        )
        if algorithm is None:
            raise CliError(
                f"no cached algorithm for {args.collective} on {topology.name} "
                f"(C={args.chunks}, S={args.steps}, R={args.rounds}); run "
                f"`repro synthesize` first"
            )
        provenance = {}

    if args.format == "xml":
        payload = to_msccl_xml(algorithm)
    else:
        plan = plan_from_algorithm(algorithm, provenance=provenance or None)
        payload = plan.dumps()

    if args.output:
        from ..engine.cache import atomic_write

        atomic_write(Path(args.output), payload)
        print(f"wrote {args.format} to {args.output}")
    else:
        sys.stdout.write(payload)
    return 0


# ----------------------------------------------------------------------
# repro import
# ----------------------------------------------------------------------
def _cmd_import(args) -> int:
    from ..interchange import read_msccl_xml, read_plan

    path = Path(args.file)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    fmt = args.format
    if fmt == "auto":
        fmt = "plan" if path.suffix.lower() == ".json" else "xml"

    topology = None
    if args.topology:
        topology = _topology(args)
    if fmt == "xml":
        algorithm = read_msccl_xml(path, topology=topology)
    else:
        plan = read_plan(path)
        if topology is not None and not plan.matches_topology(topology):
            raise CliError(
                f"plan was synthesized for a topology structurally different "
                f"from {args.topology!r} (fingerprint mismatch)"
            )
        algorithm = plan.algorithm

    print(f"imported and re-verified {algorithm.name!r} from {path}")
    if not args.quiet:
        print()
        print(algorithm.describe())
    if args.store:
        _store_imported(algorithm, args)
    return 0


def _store_imported(algorithm, args) -> None:
    from ..core.instance import InstanceError, make_instance
    from ..core.synthesizer import SynthesisResult
    from ..engine.cache import store_result
    from ..interchange import infer_root
    from ..solver import SolveResult

    cache = _require_cache(args)
    try:
        instance = make_instance(
            algorithm.collective,
            algorithm.topology,
            algorithm.chunks_per_node,
            algorithm.num_steps,
            algorithm.total_rounds,
            root=infer_root(algorithm),
        )
    except InstanceError as exc:
        raise CliError(
            f"cannot store {algorithm.collective} into the cache: {exc} "
            f"(store the non-combining base algorithm instead)"
        ) from exc
    result = SynthesisResult(
        instance=instance,
        status=SolveResult.SAT,
        algorithm=algorithm,
        backend=str(algorithm.metadata.get("imported_from", "import")),
    )
    if store_result(cache, result):
        print(f"stored into cache at {cache.root}")
    else:
        raise CliError(f"cache at {cache.root} is not writable")


# ----------------------------------------------------------------------
# repro cache ...
# ----------------------------------------------------------------------
def _cmd_cache_ls(args) -> int:
    cache = _require_cache(args)
    entries = cache.entries()
    unreadable = len(cache.entry_paths()) - len(entries)
    if not entries and not unreadable:
        print(f"cache at {cache.root}: empty")
        return 0
    now = time.time()
    note = f" ({unreadable} unreadable; see `repro cache verify`)" if unreadable else ""
    print(
        f"cache at {cache.root}: {len(entries)} entries, "
        f"{cache.total_bytes()} bytes{note}"
    )
    header = f"{'key':<14} {'status':<7} {'backend':<8} {'age':>8} {'size':>8}  instance"
    print(header)
    print("-" * len(header))
    for path, entry in entries:
        try:
            stat = path.stat()
            age, size = _format_age(now - stat.st_mtime), stat.st_size
        except OSError:
            age, size = "?", 0
        key = entry.key if args.keys else entry.key[:12] + ".."
        print(
            f"{key:<14} {entry.status:<7} {entry.backend:<8} {age:>8} {size:>8}  "
            f"{entry.describe_instance()}"
        )
    return 0


def _format_age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    for unit, width in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= width:
            return f"{seconds / width:.1f}{unit}"
    return f"{seconds:.0f}s"


def _find_entry(cache, key_prefix: str):
    matches = [
        (path, entry) for path, entry in cache.entries()
        if entry.key.startswith(key_prefix)
    ]
    if not matches:
        raise CliError(f"no cache entry matches key prefix {key_prefix!r}")
    if len(matches) > 1:
        raise CliError(
            f"key prefix {key_prefix!r} is ambiguous ({len(matches)} matches); "
            f"use more characters"
        )
    return matches[0]


def _cmd_cache_show(args) -> int:
    from ..core.algorithm import Algorithm

    cache = _require_cache(args)
    path, entry = _find_entry(cache, args.key)
    print(f"key:      {entry.key}")
    print(f"path:     {path}")
    print(f"status:   {entry.status}")
    print(f"backend:  {entry.backend}")
    print(f"instance: {entry.describe_instance()}")
    print(f"solve:    {entry.solve_time:.2f}s")
    if args.json:
        print(json.dumps(entry.to_json(), indent=2, sort_keys=True))
    elif entry.algorithm is not None:
        print()
        print(Algorithm.from_dict(entry.algorithm).describe())
    return 0


def _cmd_cache_verify(args) -> int:
    from ..core.algorithm import Algorithm
    from ..engine.cache import CacheEntry

    cache = _require_cache(args)
    ok, bad = 0, []
    # Walk the raw files, not entries(): unreadable files (crashed writers,
    # hand edits) must be reported as invalid, not silently skipped.
    for path in cache.entry_paths():
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = CacheEntry.from_json(json.load(handle))
            if entry.status == "sat" and entry.algorithm is not None:
                Algorithm.from_dict(entry.algorithm).verify()
            # UNSAT entries carry no schedule to check.
            ok += 1
        except Exception as exc:
            bad.append((path, exc))
    print(f"{ok} entries verified, {len(bad)} invalid")
    for path, exc in bad:
        print(f"  {path.stem[:12]}..: {exc}")
        if args.drop:
            try:
                path.unlink()
                print("    dropped")
            except OSError as unlink_exc:
                print(f"    could not drop: {unlink_exc}")
    return 0 if not bad or args.drop else 1


def _cmd_cache_evict(args) -> int:
    cache = _require_cache(args)
    if args.max_entries is None and args.max_bytes is None and args.max_age_days is None:
        raise CliError(
            "nothing to do: pass --max-entries, --max-bytes and/or --max-age-days"
        )
    before = len(cache)
    evicted = cache.evict(
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        max_age_s=None if args.max_age_days is None else args.max_age_days * 86400.0,
    )
    print(f"evicted {len(evicted)} of {before} entries ({len(cache)} remain)")
    if args.verbose:
        for key in evicted:
            print(f"  {key}")
    return 0


def _cmd_cache_clear(args) -> int:
    cache = _require_cache(args)
    count = len(cache)
    cache.clear()
    print(f"cleared {count} entries from {cache.root}")
    return 0


# ----------------------------------------------------------------------
# repro serve / repro request (the planning service)
# ----------------------------------------------------------------------
def _make_registry(args):
    from ..service import PlanRegistry

    return PlanRegistry(cache=_require_cache(args))


def _cmd_serve(args) -> int:
    import signal

    from ..service import PlanningService, make_server

    if args.workers < 1:
        raise CliError("--workers must be at least 1")
    registry = _make_registry(args)
    service = PlanningService(registry, num_workers=args.workers)
    try:
        server = make_server(service, host=args.host, port=args.port)
    except OSError as exc:
        raise CliError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    host, port = server.server_address[:2]
    service.start()
    print(
        f"repro planning service listening on http://{host}:{port} "
        f"(cache {registry.cache.root}, workers={args.workers})",
        flush=True,
    )

    # SIGTERM (kill, systemd, a process supervisor) takes the Ctrl-C path.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)  # a second one ends the process
        server.server_close()
        # Bounded: a worker mid-solve is a daemon thread and must not hold
        # the exit back.
        service.stop(timeout=1.0)
        stats = service.stats()["broker"]
        print(
            f"served {stats['completed']} request(s), "
            f"coalesced {stats['coalesced']} of {stats['submitted']}"
        )
    return 0


def _build_plan_request(args):
    from ..service import PlanRequest, ServiceError

    try:
        return PlanRequest(
            collective=args.collective,
            topology=args.topology,
            chunks=args.chunks,
            steps=args.steps,
            rounds=args.rounds,
            root=args.root,
            size_bytes=args.size,
            synchrony=args.synchrony,
            deadline_s=args.deadline,
        ).validate()
    except ServiceError as exc:
        raise CliError(str(exc)) from exc


def _print_section(title: str, rows) -> None:
    print(f"{title}:")
    for label, value in rows:
        print(f"  {label:<22} {value}")


def _cmd_request_stats(args) -> int:
    from ..service import ServiceError, fetch_stats

    if args.local:
        raise CliError("--stats reads a running service's counters (--url), not --local")
    try:
        stats = fetch_stats(args.url)
    except ServiceError as exc:
        raise CliError(str(exc)) from exc

    since = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(stats["since"]))
    print(f"counts since {since}")
    broker = stats["broker"]
    _print_section("broker", [
        ("submitted", broker["submitted"]),
        ("coalesced", f"{broker['coalesced']} ({broker['coalescing_ratio']:.0%})"),
        ("completed", broker["completed"]),
        ("failed", broker["failed"]),
        ("expired", broker["expired"]),
        ("dropped jobs", broker["dropped_jobs"]),
        ("resolver crashes", broker["resolver_crashes"]),
        ("pending / inflight", f"{broker['pending']} / {broker['inflight']}"),
    ])
    resolver = stats["resolver"]
    rungs = resolver["rungs"]
    _print_section("resolver", [
        ("ladder rungs",
         ", ".join(f"{name}={rungs[name]}" for name in sorted(rungs)) or "(none)"),
        ("warm hits", resolver["warm_hits"]),
        ("replans", resolver["replans"]),
    ])
    bounds, cache = stats["engine"]["bounds"], stats["engine"]["cache"]
    _print_section("engine", [
        ("candidates probed", bounds["probed"]),
        ("candidates pruned", bounds["pruned"]),
        ("candidates cut", bounds["cut"]),
        ("cache hits", cache["hits"]),
        ("cache misses", cache["misses"]),
        ("cache hit rate", f"{cache['hit_rate']:.0%}"),
    ])
    faults = stats.get("faults") or {}
    if faults.get("active_topologies"):
        _print_section("faults", [
            ("degraded topologies", faults["active_topologies"]),
        ])
    return 0


def _cmd_request(args) -> int:
    from ..service import ServiceError, request_plan

    if args.stats:
        return _cmd_request_stats(args)
    if not args.collective:
        raise CliError("request needs a COLLECTIVE (or --stats)")
    if not args.topology:
        raise CliError("request needs --topology (unless asking for --stats)")
    request = _build_plan_request(args)
    try:
        if args.local:
            from ..service import PlanningService

            with PlanningService(_make_registry(args), num_workers=args.workers) as service:
                response = service.request(request)
        else:
            response = request_plan(args.url, request)
    except ServiceError as exc:
        raise CliError(str(exc)) from exc

    print(response.summary())
    if response.route:
        route = response.route
        upper = route.get("max_bytes")
        upper_text = "inf" if upper is None else f"{upper:.0f}"
        print(
            f"routed to {route['plan']} (C,S,R)={tuple(route['signature'])} "
            f"for sizes [{route['min_bytes']:.0f}, {upper_text}) bytes"
        )
    if not response.ok:
        return 1
    plan = response.plan_object()  # re-verify before trusting the wire
    print(plan.summary())
    if args.output:
        from ..interchange import write_plan

        path = write_plan(plan, args.output)
        print(f"wrote plan bundle to {path}")
    return 0


# ----------------------------------------------------------------------
# repro fault
# ----------------------------------------------------------------------
def _parse_link(spec: str, flag: str):
    parts = spec.split(":")
    if len(parts) != 2:
        raise CliError(f"bad {flag} spec {spec!r} (expected SRC:DST)")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CliError(f"bad {flag} spec {spec!r} (expected SRC:DST)") from exc


def _collect_faults(args) -> list:
    from ..faults import FaultError, LinkDegraded, LinkDown, RankDown

    faults = []
    try:
        for spec in args.link_down or []:
            src, dst = _parse_link(spec, "--link-down")
            faults.append(LinkDown(src, dst).to_json())
        for spec in args.rank_down or []:
            try:
                rank = int(spec)
            except ValueError as exc:
                raise CliError(f"bad --rank-down spec {spec!r}") from exc
            faults.append(RankDown(rank).to_json())
        for spec in args.link_degraded or []:
            parts = spec.split(":")
            if len(parts) < 2 or len(parts) > 4:
                raise CliError(
                    f"bad --link-degraded spec {spec!r} "
                    "(expected SRC:DST[:ALPHA_FACTOR[:BETA_FACTOR]])"
                )
            try:
                src, dst = int(parts[0]), int(parts[1])
                alpha = float(parts[2]) if len(parts) > 2 else 1.0
                beta = float(parts[3]) if len(parts) > 3 else 1.0
            except ValueError as exc:
                raise CliError(f"bad --link-degraded spec {spec!r}") from exc
            faults.append(
                LinkDegraded(src, dst, alpha_factor=alpha, beta_factor=beta).to_json()
            )
    except FaultError as exc:
        raise CliError(str(exc)) from exc
    return faults


def _cmd_fault(args) -> int:
    from ..service import FaultRequest, ServiceError, request_fault

    faults = _collect_faults(args)
    try:
        request = FaultRequest(
            topology=args.topology, action=args.action, faults=tuple(faults)
        ).validate()
    except ServiceError as exc:
        raise CliError(str(exc)) from exc

    if args.preview:
        # Offline: derive and describe the degraded topology locally.
        topology = request.resolve_topology()
        fault_set = request.fault_set()
        fault_set.validate(topology)
        degraded = fault_set.apply(topology)
        print(f"faults: {fault_set.describe() or '(none)'}")
        print(
            f"degraded topology: {degraded.name} "
            f"({degraded.num_nodes} nodes, {len(degraded.links())} links; "
            f"healthy has {len(topology.links())})"
        )
        return 0

    try:
        response = request_fault(args.url, request)
    except ServiceError as exc:
        raise CliError(str(exc)) from exc
    print(response.summary())
    if response.degraded:
        deg = response.degraded
        print(
            f"degraded topology: {deg.get('name')} "
            f"({deg.get('num_nodes')} nodes, {deg.get('links')} links, "
            f"{deg.get('links_removed')} removed)"
        )
    return 0 if response.ok else 1


# ----------------------------------------------------------------------
# repro run
# ----------------------------------------------------------------------
def _parse_size(text: str) -> int:
    """``1024``, ``64K``, ``1M``, ``2G`` -> bytes."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    scale = units.get(text[-1:].upper())
    digits = text[:-1] if scale else text
    scale = scale or 1
    try:
        size = int(digits) * scale
    except ValueError as exc:
        raise CliError(f"bad size {text!r} (use e.g. 4096, 64K, 1M, 2G)") from exc
    if size <= 0:
        raise CliError(f"size must be positive, got {text!r}")
    return size


def _cmd_run(args) -> int:
    from ..interchange import read_msccl_xml, read_plan
    from ..runtime import Simulator, execute, lower

    path = Path(args.file)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    fmt = args.format
    if fmt == "auto":
        fmt = "plan" if path.suffix.lower() == ".json" else "xml"
    if fmt == "plan":
        algorithm = read_plan(path).algorithm
    else:
        algorithm = read_msccl_xml(path)
    print(f"imported and re-verified {algorithm.name!r} from {path}")

    program = lower(algorithm, protocol=args.protocol)
    execution = execute(program, algorithm)
    print(
        f"functional execution: OK ({execution.transfers} chunk transfers, "
        f"{execution.steps_executed} steps, protocol {args.protocol})"
    )

    sizes = [_parse_size(s) for s in (args.size or ["1K", "1M", "128M"])]
    simulator = Simulator(algorithm.topology)
    print("simulated times (per-node buffer size -> estimate):")
    for size in sizes:
        sim = simulator.simulate(program, size)
        print(
            f"  {size:>12,d} B   {sim.total_time_s * 1e6:10.1f} us   "
            f"({sim.algorithmic_bandwidth() / 1e9:.2f} GB/s)"
        )
    return 0


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------
def _load_trace(path_str: str) -> dict:
    path = Path(path_str)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    try:
        trace = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CliError(f"{path} is not valid trace JSON: {exc}") from exc
    if not isinstance(trace, dict):
        raise CliError(f"{path} is not a Chrome trace (expected a JSON object)")
    return trace


def _cmd_trace(args) -> int:
    from ..telemetry import diff_chrome_traces, summarize_chrome_trace

    trace = _load_trace(args.file)
    if args.diff is not None:
        other = _load_trace(args.diff)
        print(diff_chrome_traces(
            trace, other, label_a=args.file, label_b=args.diff
        ))
        return 0
    print(summarize_chrome_trace(trace, top=args.top))
    return 0


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------
class _StrategyChoices:
    """``--strategy`` choices: the engine loads when they are matched or listed."""

    def __iter__(self):
        from ..engine.dispatch import STRATEGIES

        return iter(STRATEGIES)

    def __contains__(self, name) -> bool:
        return name in tuple(self)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCCL reproduction toolchain: synthesize, inspect and "
        "export collective algorithms.",
    )
    parser.add_argument(
        "--version", action="version", version=_version_string()
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # synthesize -------------------------------------------------------
    synth = subparsers.add_parser(
        "synthesize", help="solve one (collective, topology, C, S, R) candidate"
    )
    synth.add_argument("collective", help="collective name (e.g. Allgather)")
    _add_topology_option(synth)
    synth.add_argument("-C", "--chunks", type=int, required=True, help="chunks per node")
    synth.add_argument("-S", "--steps", type=int, required=True, help="step count")
    synth.add_argument("-R", "--rounds", type=int, required=True, help="total rounds")
    synth.add_argument("--root", type=int, default=0, help="root node for rooted collectives")
    synth.add_argument("--name", default=None, help="name for the synthesized algorithm")
    synth.add_argument("--xml", default=None, metavar="FILE", help="export MSCCL-style XML")
    synth.add_argument("--plan", default=None, metavar="FILE", help="export a plan bundle")
    synth.add_argument("-q", "--quiet", action="store_true", help="omit the schedule dump")
    synth.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace-event JSON of the solve "
                       "(load in ui.perfetto.dev or chrome://tracing)")
    _add_engine_options(synth)
    _add_cache_options(synth, allow_disable=True)
    synth.set_defaults(func=_cmd_synthesize)

    # pareto -----------------------------------------------------------
    pareto = subparsers.add_parser(
        "pareto", help="run Pareto-Synthesize (Algorithm 1) for a collective"
    )
    pareto.add_argument("collective")
    _add_topology_option(pareto)
    pareto.add_argument("-k", type=int, default=0, help="synchrony budget (default 0)")
    pareto.add_argument("--root", type=int, default=0)
    pareto.add_argument("--max-steps", type=int, default=None)
    pareto.add_argument("--max-chunks", type=int, default=None)
    pareto.add_argument(
        "--strategy",
        choices=_StrategyChoices(),
        metavar="STRATEGY",
        default="incremental",
        help="candidate-sweep strategy: %(choices)s (default incremental)",
    )
    pareto.add_argument(
        "--no-bounds", action="store_true",
        help="disable baseline bound-seeding (probe every candidate instead "
        "of pruning those dominated by a verified baseline or an earlier SAT)",
    )
    pareto.add_argument("--max-workers", type=int, default=None,
                        help="worker processes for --strategy parallel/speculative")
    pareto.add_argument("--export-dir", default=None,
                        help="write every frontier algorithm into this directory")
    pareto.add_argument("--export-format", choices=("xml", "plan", "both"), default="xml")
    pareto.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON of the whole sweep "
                        "(per-candidate spans; load in ui.perfetto.dev)")
    _add_engine_options(pareto)
    _add_cache_options(pareto, allow_disable=True)
    pareto.set_defaults(func=_cmd_pareto)

    # export -----------------------------------------------------------
    export = subparsers.add_parser(
        "export", help="emit a cached or bundled algorithm as XML or a plan"
    )
    export.add_argument("collective", nargs="?", default=None)
    export.add_argument("-t", "--topology", default=None, help=TOPOLOGY_HELP)
    export.add_argument("-C", "--chunks", type=int, default=None)
    export.add_argument("-S", "--steps", type=int, default=None)
    export.add_argument("-R", "--rounds", type=int, default=None)
    export.add_argument("--root", type=int, default=0)
    export.add_argument("--plan-input", default=None, metavar="FILE",
                        help="export from a plan bundle instead of the cache")
    export.add_argument("--format", choices=("xml", "plan"), default="xml")
    export.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="output file (default: stdout)")
    _add_cache_options(export)
    export.set_defaults(func=_cmd_export)

    # import -----------------------------------------------------------
    import_cmd = subparsers.add_parser(
        "import", help="parse an XML/plan file, re-verify it against the spec"
    )
    import_cmd.add_argument("file", help="XML or plan file to import")
    import_cmd.add_argument("--format", choices=("auto", "xml", "plan"), default="auto")
    import_cmd.add_argument("-t", "--topology", default=None,
                            help=f"override the embedded topology ({TOPOLOGY_HELP})")
    import_cmd.add_argument("--store", action="store_true",
                            help="persist the verified algorithm into the cache")
    import_cmd.add_argument("-q", "--quiet", action="store_true")
    _add_cache_options(import_cmd)
    import_cmd.set_defaults(func=_cmd_import)

    # cache ------------------------------------------------------------
    cache_cmd = subparsers.add_parser("cache", help="inspect and manage the algorithm cache")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)

    ls = cache_sub.add_parser("ls", help="list entries (least-recently-used first)")
    ls.add_argument("--keys", action="store_true", help="print full keys")
    _add_cache_options(ls)
    ls.set_defaults(func=_cmd_cache_ls)

    show = cache_sub.add_parser("show", help="show one entry by key (prefix allowed)")
    show.add_argument("key")
    show.add_argument("--json", action="store_true", help="dump the raw entry JSON")
    _add_cache_options(show)
    show.set_defaults(func=_cmd_cache_show)

    verify = cache_sub.add_parser("verify", help="re-verify every cached schedule")
    verify.add_argument("--drop", action="store_true", help="discard invalid entries")
    _add_cache_options(verify)
    verify.set_defaults(func=_cmd_cache_verify)

    evict = cache_sub.add_parser(
        "evict", help="LRU-prune the cache to size/age limits"
    )
    evict.add_argument("--max-entries", type=_limit(int), default=None, metavar="N")
    evict.add_argument("--max-bytes", type=_limit(int), default=None, metavar="B")
    evict.add_argument("--max-age-days", type=_limit(float), default=None, metavar="D")
    evict.add_argument("-v", "--verbose", action="store_true", help="print evicted keys")
    _add_cache_options(evict)
    evict.set_defaults(func=_cmd_cache_evict)

    clear = cache_sub.add_parser("clear", help="remove every entry")
    _add_cache_options(clear)
    clear.set_defaults(func=_cmd_cache_clear)

    # serve ------------------------------------------------------------
    from ..service.server import DEFAULT_HOST, DEFAULT_PORT

    serve = subparsers.add_parser(
        "serve", help="run the planning service (HTTP endpoint + worker pool)"
    )
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (0 picks a free one; default {DEFAULT_PORT})")
    serve.add_argument("--workers", type=int, default=2,
                       help="planning worker threads (default 2)")
    # Accepted and ignored: routing tables are memoized, not stored.
    serve.add_argument("--routes-dir", help=argparse.SUPPRESS)
    _add_cache_options(serve)
    serve.set_defaults(func=_cmd_serve)

    # request ----------------------------------------------------------
    request = subparsers.add_parser(
        "request", help="ask a running planning service for a plan"
    )
    request.add_argument("collective", nargs="?", default=None,
                         help="collective name (omit with --stats)")
    request.add_argument("-t", "--topology", default=None, help=TOPOLOGY_HELP)
    request.add_argument("--stats", action="store_true",
                         help="print the service's /v1/stats view of its metrics "
                         "registry (broker, resolver ladder, bounds, cache) and "
                         "its queue, then exit")
    request.add_argument("-C", "--chunks", type=int, default=None,
                         help="pin the candidate: chunks per node")
    request.add_argument("-S", "--steps", type=int, default=None)
    request.add_argument("-R", "--rounds", type=int, default=None)
    request.add_argument("--root", type=int, default=0)
    request.add_argument("--size", type=int, default=None, metavar="BYTES",
                         help="route by per-node buffer size instead of pinning C/S/R")
    request.add_argument("-k", "--synchrony", type=int, default=2,
                         help="synchrony budget for routed-mode sweeps (default 2)")
    request.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="give up (and fall back to a baseline) after S seconds")
    request.add_argument("--url", default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
                         help="service URL (default %(default)s)")
    request.add_argument("--local", action="store_true",
                         help="answer in-process instead of contacting a server")
    request.add_argument("--workers", type=int, default=2,
                         help="worker threads for --local (default 2)")
    request.add_argument("-o", "--output", default=None, metavar="FILE",
                         help="write the returned plan bundle to FILE")
    _add_cache_options(request)
    request.set_defaults(func=_cmd_request)

    # fault ------------------------------------------------------------
    fault = subparsers.add_parser(
        "fault",
        help="register, clear or inspect fabric faults on a running service",
    )
    fault.add_argument("action", choices=("register", "clear", "status"))
    _add_topology_option(fault)
    fault.add_argument("--link-down", action="append", default=None,
                       metavar="SRC:DST", help="declare a link dead (repeatable)")
    fault.add_argument("--rank-down", action="append", default=None,
                       metavar="RANK", help="declare a rank dead (repeatable)")
    fault.add_argument("--link-degraded", action="append", default=None,
                       metavar="SRC:DST[:AF[:BF]]",
                       help="inflate a link's alpha/beta by the given factors "
                       "(repeatable)")
    fault.add_argument("--url", default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
                       help="service URL (default %(default)s)")
    fault.add_argument("--preview", action="store_true",
                       help="derive and print the degraded topology locally "
                       "without contacting a server")
    fault.set_defaults(func=_cmd_fault)

    # run --------------------------------------------------------------
    run = subparsers.add_parser(
        "run", help="execute an imported plan/XML on the executor + simulator"
    )
    run.add_argument("file", help="plan bundle (.json) or MSCCL-style XML")
    run.add_argument("--format", choices=("auto", "xml", "plan"), default="auto")
    run.add_argument("--protocol", default="single_kernel_push",
                     help="lowering protocol (default single_kernel_push)")
    run.add_argument("--size", action="append", default=None, metavar="BYTES",
                     help="per-node buffer size to simulate (repeatable; "
                     "accepts K/M/G suffixes; default 1K, 1M, 128M)")
    run.set_defaults(func=_cmd_run)

    # trace ------------------------------------------------------------
    trace = subparsers.add_parser(
        "trace", help="summarize a Chrome trace written by --trace"
    )
    trace.add_argument("file", help="trace-event JSON file (from --trace FILE)")
    trace.add_argument("--top", type=int, default=0, metavar="N",
                       help="also list the N slowest individual spans")
    trace.add_argument("--diff", default=None, metavar="OTHER.json",
                       help="phase-by-phase comparison against a second trace "
                       "instead of a summary")
    trace.set_defaults(func=_cmd_trace)

    return parser


def _version_string() -> str:
    from .. import __version__

    return f"repro-sccl {__version__}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "export" and not args.plan_input:
        missing = [
            flag for flag, value in (
                ("collective", args.collective),
                ("--chunks", args.chunks),
                ("--steps", args.steps),
                ("--rounds", args.rounds),
            )
            if value is None
        ]
        if missing:
            parser.error(
                f"export needs {', '.join(missing)} (or --plan-input FILE)"
            )
    try:
        return int(args.func(args) or 0)
    except BrokenPipeError:
        # Downstream reader (head, grep -q) closed the pipe: not an error.
        return 0
    except CliError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surfaced engine/interchange errors
        print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
