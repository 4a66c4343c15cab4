"""schedule_pipeline: everything downstream of synthesis, no solver.

24 fixed algorithms (the verified baseline suite on three topologies, five
synthesized DGX-1 Allgather points and their Allreduce compositions, built
in set-up) each go through lowering under three protocols, code generation,
functional execution, the alpha-beta simulator at 11 buffer sizes, MSCCL
XML and plan-bundle round-trips and a fault scan.  These are the five
``Algorithm`` walkers a schedule IR would merge; ``runtime.sim_cost_us`` is
this repo's "run time of the generated code".
"""

from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

from checker import check_algorithm
from harness import (
    Context, Measurement, best_sum, run_alternating, run_passes, summarize_rows,
)

IMPORTS = ("repro.core", "repro.baselines", "repro.runtime", "repro.interchange",
           "repro.faults", "repro.cli.topologies")

STAGES = ("runtime.lower", "runtime.codegen", "runtime.execute", "runtime.simulate",
          "interchange.xml_export", "interchange.xml_import",
          "interchange.plan_export", "interchange.plan_import", "faults.scan")


@dataclass
class Entry:
    name: str
    algorithm: object
    simulator: object
    dead_link: Tuple[int, int]


@dataclass
class State:
    entries: Dict[str, Entry]
    sizes: List[int]
    costs: Dict[str, List[float]]   # first pass's simulated times, per entry


def setup(ctx: Context) -> State:
    import random

    from repro.baselines import baseline_suite
    from repro.cli.topologies import parse_topology
    from repro.core import allreduce_from_allgather, make_instance, synthesize
    from repro.runtime import Simulator

    spec = ctx.expected["schedule_pipeline"]
    rng = random.Random(ctx.seed)
    algorithms = []
    for topology_spec in spec["baseline_topologies"]:
        topology = parse_topology(topology_spec)
        for collective in spec["baseline_collectives"]:
            for baseline in baseline_suite(collective, topology):
                algorithms.append((f"{collective}/{topology_spec}/{baseline.name}",
                                   baseline.algorithm))
    dgx1 = parse_topology("dgx1")
    for (c, s, r) in spec["synthesized_allgather_dgx1"]:
        result = synthesize(make_instance("Allgather", dgx1, c, s, r), conflict_limit=20000)
        algorithms.append((f"Allgather/dgx1/synth-{c}-{s}-{r}", result.algorithm))
        algorithms.append((f"Allreduce/dgx1/synth-{c}-{s}-{r}",
                           allreduce_from_allgather(result.algorithm)))
    if len(algorithms) != spec["algorithms"]:
        raise RuntimeError(f"built {len(algorithms)} algorithms, expected {spec['algorithms']}")

    entries = {}
    for name, algorithm in algorithms:
        # The one dead link of this run, drawn from the seed.
        dead_link = rng.choice(sorted(algorithm.topology.links()))
        entries[name] = Entry(name, algorithm, Simulator(algorithm.topology), dead_link)
    return State(entries, [1 << exponent for exponent in spec["sizes_log2"]], {})


def teardown(state: State) -> None:
    pass


def _pipeline(entry: Entry, sizes: List[int], span) -> dict:
    """One algorithm through every stage; ``span(name)`` brackets a stage."""
    from repro.faults import FaultSet, LinkDown, scan_program
    from repro.interchange import AlgorithmPlan, from_msccl_xml, plan_from_algorithm, to_msccl_xml
    from repro.runtime import PROTOCOLS, execute, generate_cuda_like_source, lower

    algorithm = entry.algorithm
    with span("runtime.lower"):
        programs = [lower(algorithm, protocol) for protocol in PROTOCOLS]
    with span("runtime.codegen"):
        sources = [generate_cuda_like_source(program) for program in programs]
    with span("runtime.execute"):
        execute(programs[0], algorithm, check=True)
    with span("runtime.simulate"):
        costs = [entry.simulator.simulate(program, size).total_time_s
                 for program in programs for size in sizes]
    with span("interchange.xml_export"):
        xml = to_msccl_xml(algorithm)
    with span("interchange.xml_import"):
        from_xml = from_msccl_xml(xml)
    with span("interchange.plan_export"):
        blob = plan_from_algorithm(algorithm).dumps()
    with span("interchange.plan_import"):
        from_plan = AlgorithmPlan.from_json(json.loads(blob), verify=True).algorithm
    with span("faults.scan"):
        violations = scan_program(
            programs[0], FaultSet.of(LinkDown(*entry.dead_link)), algorithm.topology
        )
    return {"programs": programs, "sources": sources, "costs": costs, "xml": xml,
            "from_xml": from_xml, "from_plan": from_plan, "violations": violations}


def _schedule(algorithm) -> list:
    return [(step.rounds, sorted((t.chunk, t.src, t.dst, t.op) for t in step.sends))
            for step in algorithm.steps]


def _judge(state: State, entry: Entry, out: dict, measurement: Measurement) -> None:
    measurement.attempted += 1
    algorithm = entry.algorithm
    try:
        for copy in (out["from_xml"], out["from_plan"]):
            check_algorithm(copy)
            if _schedule(copy) != _schedule(algorithm):
                raise ValueError("round-trip changed the schedule")
        if not all(out["sources"]):
            raise ValueError("empty generated source")
        crossing = sum(
            1 for step in algorithm.steps for t in step.sends
            if (t.src, t.dst) == entry.dead_link
        )
        found = [(v.src, v.dst) for v in out["violations"]]
        if found != [entry.dead_link] * crossing:
            raise ValueError(f"fault scan found {len(found)} sends on the dead link, "
                             f"the schedule has {crossing}")
        if min(out["costs"]) <= 0:
            raise ValueError("non-positive simulated time")
        if state.costs.setdefault(entry.name, out["costs"]) != out["costs"]:
            raise ValueError("simulated times differ between passes")
    except Exception as exc:  # whatever a check raises, the output is wrong
        measurement.fail(f"{entry.name}: {exc}")


def _facts(state: State, sizes: Dict[str, Tuple[int, int]]) -> dict:
    # Sorted, so the sum runs in one order whatever the seed's row order was.
    costs = [cost for name in sorted(state.costs) for cost in state.costs[name]]
    geomean_us = math.exp(sum(math.log(cost * 1e6) for cost in costs) / len(costs))
    return {
        "sim_cost_us": geomean_us,
        "instructions": sum(size[0] for size in sizes.values()),
        "xml_bytes": sum(size[1] for size in sizes.values()),
    }


def _run_entry(state: State, name: str, measurement: Measurement, sizes: dict,
               rec=None, op_id=None) -> float:
    """One checked pipeline op; with a recorder, one span per stage."""
    entry = state.entries[name]
    started = time.perf_counter()
    if rec is None:
        out = _pipeline(entry, state.sizes, nullcontext)
    else:
        with rec.span("op", op=op_id):
            out = _pipeline(entry, state.sizes, rec.span)
    taken = time.perf_counter() - started
    _judge(state, entry, out, measurement)
    sizes[name] = (sum(p.total_instructions() for p in out["programs"]), len(out["xml"]))
    return taken


def measure(state: State, seconds: float, rng) -> Measurement:
    measurement = Measurement()
    sizes: dict = {}
    samples = run_passes(
        list(state.entries),
        lambda name, _pass: _run_entry(state, name, measurement, sizes),
        seconds,
        rng,
    )
    summarize_rows(samples, measurement)
    measurement.facts = _facts(state, sizes)
    return measurement


def trace(state: State, seconds: float, rng, rec) -> Tuple[Measurement, dict]:
    measurement = Measurement()
    sizes: dict = {}
    plain, traced = run_alternating(
        list(state.entries),
        lambda name: _run_entry(state, name, measurement, sizes),
        lambda name, op_id: _run_entry(state, name, measurement, sizes, rec, op_id),
        seconds,
        rng,
    )
    summarize_rows(plain, measurement)
    facts = measurement.facts = _facts(state, sizes)
    layers = {f"{stage}_s": best_sum(rec.by_row(stage)) for stage in STAGES}
    layers.update({
        "runtime.instructions": facts["instructions"],
        "runtime.sim_cost_us": facts["sim_cost_us"],
        "interchange.xml_bytes": facts["xml_bytes"],
        "trace.coverage": rec.coverage("op"),
        "trace.overhead_ratio": best_sum(traced) / best_sum(plain),
    })
    return measurement, layers
