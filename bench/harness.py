"""Shared machinery of the benchmark: statistics, interleaved passes, sandbox.

Every workload measures *ops*.  Row workloads (``frontier_cold``,
``probe_rows``, ``schedule_pipeline``) run a fixed set of rows in
interleaved passes, and every timing is a sum over rows of the per-row
*best* (minimum) across passes.  Best, not median: on a small shared host
the noise is one-sided (a neighbour slows the CPU by 5-60 % for seconds to
minutes), so the median moves with the host's phase while the minimum stays
put; see ``bench/README.md`` for the seed's numbers.  The per-row table
still carries median and quartiles.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Passes every row workload completes even when the host is too slow to fit
#: them into the requested measuring time.
MIN_PASSES = 3
#: A traced run alternates plain and traced passes: two of each at least.
TRACE_MIN_PASSES = 4


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_context() -> dict:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb(with_child: bool) -> float:
    """Peak resident set of this process, plus its largest ended child's.

    ``with_child`` is for the workload that runs the program as a child
    process (the planning server, by far the largest child of its run).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_child:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Sandbox: everything the program writes stays inside the checkout
# ----------------------------------------------------------------------
class Sandbox:
    """A throwaway directory under ``bench/out`` holding caches and archives.

    ``REPRO_CACHE_DIR`` and ``REPRO_PERF_DIR`` are pointed into it so no run
    reads another's cache or appends to the user's performance archive.
    """

    def __init__(self, label: str) -> None:
        self.root = OUT_DIR / f"tmp-{label}-{os.getpid()}"
        self._counter = 0

    def __enter__(self) -> "Sandbox":
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(self.root / "cache" / "algorithms")
        os.environ["REPRO_PERF_DIR"] = str(self.root / "perf")
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def fresh_dir(self, prefix: str) -> Path:
        self._counter += 1
        path = self.root / f"{prefix}-{self._counter}"
        path.mkdir(parents=True)
        return path


@dataclass
class Context:
    """What a workload's ``setup`` receives."""

    seed: int
    sandbox: Sandbox
    expected: dict


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """What one workload run measured (the end-to-end view)."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    work_s: float = 0.0         # seconds for the workload's fixed unit of work
    op_typical_s: float = 0.0   # seconds of a typical op
    rows: Dict[str, dict] = field(default_factory=dict)   # per-row sample table
    facts: Dict[str, object] = field(default_factory=dict)  # exact, untimed facts

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def row_summary(values: Sequence[float]) -> dict:
    return {
        "n": len(values),
        "best_s": min(values),
        "median_s": statistics.median(values),
        "q1_s": quantile(values, 0.25),
        "q3_s": quantile(values, 0.75),
    }


def summarize_rows(samples: Dict[str, List[float]], measurement: Measurement) -> None:
    """Fill the timing fields of a row workload from its per-row samples."""
    for name, values in samples.items():
        measurement.rows[name] = row_summary(values)
    best = [row["best_s"] for row in measurement.rows.values()]
    measurement.work_s = sum(best)
    # The geometric mean weighs a 5 ms row like a 200 ms one and, unlike the
    # median row, averages the host's noise over every row.
    measurement.op_typical_s = math.exp(sum(math.log(b) for b in best) / len(best))


def run_passes(
    names: Sequence[str],
    op: Callable[[str, int], float],
    seconds: float,
    rng: random.Random,
    min_passes: int = MIN_PASSES,
) -> Dict[str, List[float]]:
    """Interleaved passes over ``names`` until the measuring time is used up.

    Each pass runs every row once, in an order drawn from ``rng``; only
    complete passes are kept, so every row has the same sample count.
    ``op(name, pass_index)`` runs one op and returns the seconds it took;
    the collector runs before every op, outside its timing.
    """
    samples: Dict[str, List[float]] = {name: [] for name in names}
    deadline = time.perf_counter() + seconds
    pass_walls: List[float] = []
    while True:
        order = list(names)
        rng.shuffle(order)
        started = time.perf_counter()
        for name in order:
            gc.collect()
            samples[name].append(op(name, len(pass_walls)))
        pass_walls.append(time.perf_counter() - started)
        enough = len(pass_walls) >= min_passes
        if enough and time.perf_counter() + statistics.median(pass_walls) > deadline:
            return samples


def run_alternating(
    names: Sequence[str],
    plain_op: Callable[[str], float],
    traced_op: Callable[[str, str], float],
    seconds: float,
    rng: random.Random,
):
    """The traced run's passes: even ones plain, odd ones span by span.

    ``traced_op(name, op_id)`` gets the id its spans share.  Returns the
    ``(plain, traced)`` per-row samples; their ratio is the tracing overhead.
    """
    plain: Dict[str, List[float]] = {name: [] for name in names}
    traced: Dict[str, List[float]] = {name: [] for name in names}

    def op(name: str, pass_index: int) -> float:
        if pass_index % 2 == 0:
            plain[name].append(plain_op(name))
            return plain[name][-1]
        traced[name].append(traced_op(name, f"{name}#{pass_index}"))
        return traced[name][-1]

    run_passes(names, op, seconds, rng, min_passes=TRACE_MIN_PASSES)
    return plain, traced


def best_sum(grouped: Dict[str, List[float]]) -> float:
    """Sum over rows of the per-row best (0 when a layer recorded nothing)."""
    return sum(min(values) for values in grouped.values())


def timed(call: Callable[[], object]):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result
