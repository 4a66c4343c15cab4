#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

One workload run (what the driver calls; one fresh process per run)::

    python3 bench/run.py --workload probe_rows --seed 7 --seconds 26 --trace 0

prints progress lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.

Everything at once (each workload in its own subprocess, one at a time)::

    python3 bench/run.py                      # all workloads, untraced + traced
    python3 bench/run.py --quick              # schema check only, ~1 minute
    python3 bench/run.py --repeat 2 --check   # two sets must agree within bounds

See ``bench/README.md`` for the glossary and the layer -> metric table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from harness import OUT_DIR, Context, Sandbox, host_context, load_expected, peak_rss_mb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: ``setup_s`` is the median import of the workload's ``repro`` packages
#: (each in a fresh interpreter) plus the median in-process set-up.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
QUICK_SECONDS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
_IMPORT_TIMER = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - started)
"""


def _import_seconds(modules) -> float:
    """Seconds a fresh interpreter needs to import ``modules``."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(ROOT / "src"), *modules],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(f"workloads.{workload}")
    rng = random.Random(seed)
    OUT_DIR.mkdir(exist_ok=True)

    with Sandbox(workload) as sandbox:
        imports_s = [_import_seconds(module.IMPORTS) for _ in range(IMPORT_REPEATS)]
        ctx = Context(seed=seed, sandbox=sandbox, expected=load_expected())
        setups = []
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                module.teardown(state)
            started = time.perf_counter()
            state = module.setup(ctx)
            setups.append(time.perf_counter() - started)
        try:
            if trace:
                from spans import Recorder

                recorder = Recorder()
                measurement, layers = module.trace(state, seconds, rng, recorder)
                recorder.write_chrome_trace(OUT_DIR / f"trace-{workload}.json")
            else:
                measurement = module.measure(state, seconds, rng)
                layers = {}
        finally:
            module.teardown(state)

    setup_s = statistics.median(imports_s) + statistics.median(setups)
    if trace:
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        unknown = sorted(set(layers) - set(values))
        if unknown:
            measurement.fail(f"layer metrics missing from BENCHMARK.json: {unknown}")
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": setup_s,
            "work_s": measurement.work_s,
            "op_typical_s": measurement.op_typical_s,
            "peak_rss_mb": peak_rss_mb(with_child=getattr(module, "SERVER_CHILD", False)),
        }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_context(), "imports_s": imports_s, "setups_s": setups,
        "attempted": measurement.attempted, "failed": measurement.failed,
        "errors": measurement.errors, "rows": measurement.rows,
        "facts": measurement.facts, "metrics": metrics,
    }
    with open(OUT_DIR / f"{workload}-{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)

    for name, row in measurement.rows.items():
        print(f"  {name:28s} n={row['n']:<5d} best {row['best_s'] * 1e3:9.3f} ms   median "
              f"{row['median_s'] * 1e3:9.3f}   q1 {row['q1_s'] * 1e3:9.3f}   q3 {row['q3_s'] * 1e3:9.3f}")
    for error in measurement.errors:
        print(f"  FAILED: {error}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": measurement.failed == 0 and measurement.attempted > 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# All workloads, each in its own subprocess
# ----------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}:\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _paper_coverage(expected: dict) -> list:
    """Every PAPER_TABLE4/5 row: measured in probe_rows, derived, or out of budget."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.evaluation import PAPER_TABLE4, PAPER_TABLE5

    with open(OUT_DIR / "probe_rows-0.json", encoding="utf-8") as handle:
        detail = json.load(handle)
    probed = {
        (row["collective"], row["topology"], row["C"], row["S"], row["R"]): row["name"]
        for row in expected["probe_rows"]["sat"]
    }
    skipped = {
        (e["table"], e["collective"], tuple(e["row"])): e["reason"]
        for e in expected["paper_coverage"]["out_of_budget"]
    }
    report = []
    for table, topology, rows in ((4, "dgx1", PAPER_TABLE4), (5, "amd_z52", PAPER_TABLE5)):
        for collective, entries in rows.items():
            for (c, s, r, _label) in entries:
                entry = {"table": table, "collective": collective, "row": [c, s, r]}
                base = ("Allgather", topology, c // 8, s // 2, r // 2)
                name = probed.get((collective, topology, c, s, r))
                if name is None and collective == "Allreduce":
                    name = probed.get(base)
                    entry["derived_from"] = name
                if name is not None:
                    units = detail["facts"]["work_units"][name]
                    entry.update(status="probe_rows", name=name, verdict="sat",
                                 time_s=detail["rows"][name]["best_s"],
                                 conflicts=units["conflicts"])
                elif (table, collective, (c, s, r)) in skipped:
                    entry.update(status="out_of_budget",
                                 reason=skipped[(table, collective, (c, s, r))])
                else:
                    raise SystemExit(f"paper row not accounted for: {entry}")
                report.append(entry)
    return report


#: Per-layer metrics that must repeat exactly between two sets of the same
#: code (every ``count`` does too, outside ``service_mix``).
EXACT_LAYERS = ("runtime.sim_cost_us", "quality.decided_share")


def run_all(args) -> int:
    if args.check and (args.quick or args.repeat < 2):
        raise SystemExit("--check compares two full sets: use --repeat 2 without --quick")
    spec = load_spec()
    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    only = [args.only] if args.only else list(WORKLOADS)
    sets = []
    for index in range(args.repeat):
        results = {}
        for workload in only:
            for trace in (0, 1):
                print(f"[set {index + 1}/{args.repeat}] {workload} trace={trace} ...", flush=True)
                results[f"{workload}/{trace}"] = _spawn(workload, args.seed + index, seconds, trace)
        sets.append(results)

    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    wrong = 0
    for key, result in sets[-1].items():
        print(f"\n{key}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        wrong += not result["correct"]
        for name, metric in result["metrics"].items():
            if metric["value"] or key.endswith("/0"):   # layers that did no work read 0
                print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")

    report = {"quick": args.quick, "seed": args.seed, "seconds": seconds,
              "host": host_context(), "sets": sets}
    if "probe_rows" in only:
        report["paper_coverage"] = _paper_coverage(load_expected())
        print("\npaper coverage (Tables 4-5):")
        for entry in report["paper_coverage"]:
            row = "({},{},{})".format(*entry["row"])
            if entry["status"] == "probe_rows":
                via = f" via {entry['derived_from']}" if "derived_from" in entry else ""
                print(f"  T{entry['table']} {entry['collective']:10s}{row:12s} sat "
                      f"{entry['time_s'] * 1e3:9.1f} ms {entry['conflicts']:6d} conflicts{via}")
            else:
                print(f"  T{entry['table']} {entry['collective']:10s}{row:12s} "
                      f"out_of_budget: {entry['reason']}")
    with open(OUT_DIR / "results.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    outside = 0
    if args.check:
        print("\nset 1 vs set 2 (positive = set 2 worse; counts must repeat exactly):")
        for key in sets[0]:
            for name, first in sets[0][key]["metrics"].items():
                second = sets[1][key]["metrics"][name]["value"]
                if key.endswith("/0"):
                    sign = 1 if units[name]["better"] == "lower" else -1
                    worse = sign * (second - first["value"]) / first["value"]
                    bound = units[name]["bound"]
                    flag = "" if worse <= bound else "  OUTSIDE"
                    print(f"  {key:22s} {name:14s} {worse:+8.2%}  bound {bound:.0%}{flag}")
                else:
                    # Speculation and request interleaving depend on timing.
                    exact = name in EXACT_LAYERS or (
                        first["unit"] == "count"
                        and not key.startswith("service_mix")
                        and not name.startswith("engine.strategy."))
                    flag = "  DIFFERS" if exact and second != first["value"] else ""
                    if flag:
                        print(f"  {key:22s} {name:30s} {first['value']} -> {second}{flag}")
                outside += bool(flag)
    return 1 if (wrong or outside) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this workload in this process and print its JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", choices=WORKLOADS, help="all-workloads mode: just this one")
    parser.add_argument("--repeat", type=int, default=1, help="full sets to run")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat 2: exit non-zero when the sets differ by more than a bound")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s per run; validates the schema, never compared")
    args = parser.parse_args(argv)
    if args.workload:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
