"""frontier_cold: cold time-to-frontier through ``pareto_synthesize``.

What a user of ``repro pareto`` waits for: Algorithm 1 with the default
strategy and bounds and a fresh on-disk ``AlgorithmCache`` per frontier.
The only workload where ``repro.engine`` (dispatcher, ``SessionFamily``,
``BoundsLedger``, cache writes) does work; it drives the solver
incrementally under assumptions, so its solver counters differ from
``probe_rows`` on purpose.  Budgets are conflict limits, never time limits.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from checker import check_algorithm
from harness import (
    Context, Measurement, best_sum, run_alternating, run_passes, summarize_rows, timed,
)

IMPORTS = ("repro.core", "repro.engine", "repro.cli.topologies")

STRATEGIES = ("serial", "incremental", "parallel", "speculative")
#: Rows the traced run sweeps once per strategy (advisory, one sample each).
STRATEGY_ROWS = ("ag_dgx1_k2", "bc_dgx1_wide")


@dataclass
class Row:
    name: str
    collective: str
    topology: object
    k: int
    limits: dict                     # max_steps, max_chunks, conflict_limit
    frontier: List[Tuple[int, int, int, bool]]   # expected (C, S, R, proved)


@dataclass
class State:
    rows: Dict[str, Row]
    sandbox: object


def setup(ctx: Context) -> State:
    from repro.cli.topologies import parse_topology

    rows = {}
    for spec in ctx.expected["frontier_cold"]:
        rows[spec["name"]] = Row(
            name=spec["name"],
            collective=spec["collective"],
            topology=parse_topology(spec["topology"]),
            k=spec["k"],
            limits={key: spec[key] for key in ("max_steps", "max_chunks", "conflict_limit")},
            frontier=[tuple(point) for point in spec["frontier"]],
        )
    state = State(rows, ctx.sandbox)
    # One small sweep loads the engine's lazily imported modules.
    warm = Row("warm", "Allgather", parse_topology("ring:4"), 0,
               {"max_steps": 3, "max_chunks": 1, "conflict_limit": 1000}, [])
    _sweep(state, warm)
    return state


def teardown(state: State) -> None:
    pass


def _frontier(directory, row: Row, **kwargs):
    """``pareto_synthesize`` for one row over the cache stored in ``directory``."""
    from repro.core import pareto_synthesize
    from repro.engine import AlgorithmCache

    cache = AlgorithmCache(directory)
    frontier = pareto_synthesize(
        row.collective, row.topology, row.k, cache=cache, **row.limits, **kwargs
    )
    return frontier, cache


def _sweep(state: State, row: Row, **kwargs):
    """One cold frontier on a fresh cache: ``(seconds, frontier, cache)``."""
    directory = state.sandbox.fresh_dir("frontier")
    seconds, (frontier, cache) = timed(lambda: _frontier(directory, row, **kwargs))
    return seconds, frontier, cache


def _decided_share(rows: Dict[str, Row]) -> float:
    """Expected frontier points reported with ``proved=True`` (judged per op)."""
    points = [point for row in rows.values() for point in row.frontier]
    return sum(1 for point in points if point[3]) / len(points)


def _judge(row: Row, frontier, measurement: Measurement) -> None:
    measurement.attempted += 1
    got = [(*point.signature, point.proved) for point in frontier.points]
    if got != row.frontier:
        measurement.fail(f"{row.name}: frontier {got}, expected {row.frontier}")
        return
    for point in frontier.points:
        try:
            check_algorithm(point.algorithm)
            point.algorithm.verify()
        except Exception as exc:  # whatever a checker raises, the output is wrong
            measurement.fail(f"{row.name} {point.signature}: schedule rejected: {exc}")
            return


def _plain_op(state: State, row: Row, measurement: Measurement) -> float:
    seconds, frontier, cache = _sweep(state, row)
    _judge(row, frontier, measurement)
    shutil.rmtree(cache.root, ignore_errors=True)
    return seconds


def measure(state: State, seconds: float, rng) -> Measurement:
    measurement = Measurement()
    samples = run_passes(
        list(state.rows),
        lambda name, _pass: _plain_op(state, state.rows[name], measurement),
        seconds,
        rng,
    )
    summarize_rows(samples, measurement)
    measurement.facts = {
        "decided_share": _decided_share(state.rows),
    }
    return measurement


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _traced_op(state: State, row: Row, op_id: str, rec, measurement, counters) -> float:
    from repro.engine import AlgorithmCache, lookup_result, seed_ledger, store_result

    results = []
    with rec.span("op", op=op_id) as root:
        seconds, frontier, cache = _sweep(state, row, on_result=results.append)
    _judge(row, frontier, measurement)
    counters[row.name] = dict(frontier.engine_stats, cache_bytes=cache.total_bytes())

    # on_result carries no timestamps: lay the solved probes end to end from
    # the op's start, each with its encode / solve / verify phases inside.
    solved = [r for r in results if not r.cache_hit and r.provenance == "solved"]
    cursor = rec.spans[root]["start"]
    for result in solved:
        phases = (("encoding.encode", result.encode_time),
                  ("solver.solve", result.solve_time),
                  ("algorithm.verify", result.verify_time))
        probe = rec.add("engine.probe", cursor, cursor + sum(p[1] for p in phases), parent=root)
        for name, duration in phases:
            rec.add(name, cursor, cursor + duration, parent=probe)
            cursor += duration
    # What is left of the sweep is the engine's own time.
    rec.add("engine.self", cursor, rec.spans[root]["start"] + seconds, op=op_id)

    # Layers the sweep goes through, each called once more from outside.
    with rec.span("engine.warm_replay", op=op_id):
        _frontier(cache.root, row)
    base = "Allgather" if row.collective == "Allreduce" else row.collective
    with rec.span("engine.bounds.seed", op=op_id):
        seed_ledger(base, row.topology, root=0)
    scratch = AlgorithmCache(state.sandbox.fresh_dir("scratch"))
    with rec.span("engine.cache.store", op=op_id):
        for result in solved:
            store_result(scratch, result)
    with rec.span("engine.cache.lookup", op=op_id):
        for result in solved:
            lookup_result(scratch, result.instance)
    for directory in (cache.root, scratch.root):
        shutil.rmtree(directory, ignore_errors=True)
    return seconds


def _strategy_ablation(state: State, measurement: Measurement) -> dict:
    """One sweep per strategy on two rows; every frontier must still match."""
    layers = {}
    for strategy in STRATEGIES:
        wall = calls = 0
        for name in STRATEGY_ROWS:
            row = state.rows[name]
            seconds, frontier, cache = _sweep(state, row, strategy=strategy, max_workers=2)
            _judge(row, frontier, measurement)
            shutil.rmtree(cache.root, ignore_errors=True)
            wall += seconds
            calls += frontier.engine_stats["solver_calls"]
        layers[f"engine.strategy.{strategy}.wall_s"] = wall
        layers[f"engine.strategy.{strategy}.solver_calls"] = calls
    return layers


def trace(state: State, seconds: float, rng, rec) -> Tuple[Measurement, dict]:
    measurement = Measurement()
    started = time.perf_counter()
    layers = _strategy_ablation(state, measurement)

    counters: Dict[str, dict] = {}
    plain, traced = run_alternating(
        list(state.rows),
        lambda name: _plain_op(state, state.rows[name], measurement),
        lambda name, op_id: _traced_op(state, state.rows[name], op_id, rec, measurement, counters),
        seconds - (time.perf_counter() - started),
        rng,
    )
    summarize_rows(plain, measurement)

    total = lambda key: sum(c[key] for c in counters.values())  # noqa: E731
    layers.update({
        "encoding.encode_s": best_sum(rec.by_row("encoding.encode")),
        "solver.solve_s": best_sum(rec.by_row("solver.solve")),
        "algorithm.verify_s": best_sum(rec.by_row("algorithm.verify")),
        "engine.self_s": best_sum(rec.by_row("engine.self")),
        "engine.solver_calls": total("solver_calls"),
        "engine.candidates_probed": total("candidates_probed"),
        "engine.encode_calls": total("encode_calls"),
        "engine.unknown_retries": total("unknown_retries"),
        "engine.probes_pruned": total("probes_pruned"),
        "engine.probes_cut": total("probes_cut"),
        "engine.useful_ratio": total("candidates_probed") / total("solver_calls"),
        "engine.bounds.seed_s": best_sum(rec.by_row("engine.bounds.seed")),
        "engine.cache.store_s": best_sum(rec.by_row("engine.cache.store")),
        "engine.cache.lookup_s": best_sum(rec.by_row("engine.cache.lookup")),
        "engine.cache.bytes": total("cache_bytes"),
        "engine.warm_replay_s": best_sum(rec.by_row("engine.warm_replay")),
        "quality.decided_share": _decided_share(state.rows),
        "trace.coverage": rec.coverage("op"),
        "trace.overhead_ratio": best_sum(traced) / best_sum(plain),
    })
    return measurement, layers
