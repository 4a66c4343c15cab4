"""Shared helpers for the benchmark harness.

Every benchmark prints the table/figure it regenerates so that running
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's evaluation
artifacts textually.  Heavy instances (the ones that took Z3 minutes and
take the pure-Python solver correspondingly longer) only run when the
``SCCL_FULL=1`` environment variable is set; the default configuration keeps
the whole benchmark suite in the minutes range.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

import pytest


def full_scale() -> bool:
    return os.environ.get("SCCL_FULL", "0") not in ("", "0", "false", "no")


#: Per-instance synthesis time budget (seconds) for benchmark runs.
def synthesis_budget() -> float:
    return float(os.environ.get("SCCL_TIME_LIMIT", "300" if full_scale() else "90"))


def cpu_parallelism() -> int:
    """Cores available to process-pool strategies (1 = no real parallelism)."""
    return os.cpu_count() or 1


def bench_dir() -> Path:
    """Where BENCH_*.json and trace.json land: $SCCL_BENCH_DIR, else the
    git-ignored ``.bench_build/`` — a plain test run leaves the checkout clean."""
    root = os.environ.get("SCCL_BENCH_DIR") or Path(__file__).resolve().parents[1] / ".bench_build"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_bench_json(filename: str, payload: dict) -> Path:
    """Persist one benchmark's JSON artifact under :func:`bench_dir`."""
    path = bench_dir() / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def merge_bench_json(filename: str, key: str, payload: dict) -> Path:
    """Merge one section into a shared JSON artifact under ``key``.

    Several benchmarks contribute sections to the same file (e.g. the
    strategy and bounds ablations both land in ``BENCH_sweep.json``);
    merging keeps whichever sections the other tests already wrote this
    run.  A missing or corrupt file simply starts fresh.
    """
    path = bench_dir() / filename
    try:
        existing = json.loads(path.read_text())
        if not isinstance(existing, dict):
            existing = {}
    except (OSError, ValueError):
        existing = {}
    existing[key] = payload
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def phase_totals(tracer) -> Dict[str, float]:
    """Aggregate per-phase timings from a telemetry ``Tracer``'s span forest.

    Every bench JSON should carry an encode/solve/verify split so a future
    perf regression can be attributed to the phase that caused it instead
    of showing up as an opaque wall-clock delta.  The tracer is the source
    of truth for the split (see README "Observability"): phase spans
    recorded inside pool workers are re-parented into the dispatching
    sweep span, so parallel and speculative runs report the same shape as
    the serial loop.  Cache replays are counted separately — their spans
    are zero-duration markers describing the original solve, not this run.
    """
    from repro.telemetry import iter_spans

    phases = {
        "encode_s": 0.0,
        "solve_s": 0.0,
        "verify_s": 0.0,
        "probes": 0,
        "cache_replays": 0,
    }
    span_to_phase = {
        "encode": "encode_s",
        "solve": "solve_s",
        "verify": "verify_s",
    }
    for span in iter_spans(tracer.roots()):
        phase = span_to_phase.get(span.name)
        if phase is not None:
            phases[phase] += span.duration_s
        elif span.name == "probe":
            if span.attrs.get("cache_hit"):
                phases["cache_replays"] += 1
            else:
                phases["probes"] += 1
    for key in ("encode_s", "solve_s", "verify_s"):
        phases[key] = round(phases[key], 4)
    return phases


@pytest.fixture(scope="session")
def dgx1_topology():
    from repro.topology import dgx1

    return dgx1()


@pytest.fixture(scope="session")
def amd_topology():
    from repro.topology import amd_z52

    return amd_z52()


def report(title: str, text: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")
