"""Regeneration of the paper's tables (Tables 3, 4 and 5).

Each function returns the table as a list of row dictionaries and can also
render it as aligned text.  The synthesis tables take per-row resource
limits so that CI-friendly runs can cap the work; rows whose synthesis hits
the limit are reported with status ``unknown`` rather than being silently
dropped (the pure-Python SAT substrate is orders of magnitude slower than
Z3, so EXPERIMENTS.md records which rows ran at paper scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..baselines import nccl_table3
from ..core import ParetoFrontier, ParetoPoint, pareto_synthesize
from ..topology import Topology, amd_z52, dgx1
from .reporting import format_table


# Rows of Table 4 (DGX-1) and Table 5 (AMD) as (collective, k, max_steps)
# enumeration requests.  Each request reproduces a contiguous slice of the
# paper's table: the k=0 run produces the "one row per step count" series
# and the k>0 runs produce the low-step bandwidth-optimal rows.
TABLE4_RUNS: List[Tuple[str, int]] = [
    ("Allgather", 0),
    ("Allgather", 1),
    ("Allgather", 4),
    ("Allreduce", 0),
    ("Allreduce", 1),
    ("Allreduce", 4),
    ("Broadcast", 0),
    ("Gather", 0),
    ("Gather", 1),
    ("Gather", 4),
    ("Alltoall", 0),
    ("Alltoall", 1),
]

TABLE5_RUNS: List[Tuple[str, int]] = [
    ("Allgather", 0),
    ("Allgather", 3),
    ("Allreduce", 0),
    ("Allreduce", 3),
    ("Broadcast", 0),
    ("Gather", 0),
    ("Gather", 3),
    ("Alltoall", 4),
]


def table3_rows(multiplier: int = 1) -> List[Dict[str, object]]:
    """Table 3: NCCL's hand-written collectives and their (C, S, R)."""
    rows = []
    for entry in nccl_table3(multiplier):
        rows.append(
            {
                "collective": entry.collective,
                "C": entry.chunks,
                "S": entry.steps,
                "R": entry.rounds,
                "note": entry.note,
            }
        )
    return rows


@dataclass
class SynthesisTableConfig:
    """Resource limits and engine configuration for regenerating a synthesis table."""

    time_limit_per_instance: Optional[float] = 60.0
    conflict_limit: Optional[int] = None
    max_steps_extra: int = 8
    max_chunks: Optional[int] = None
    broadcast_max_steps: int = 5  # Broadcast's enumeration does not terminate on its own
    collectives: Optional[Sequence[str]] = None  # subset filter
    max_k: Optional[int] = None
    strategy: str = "incremental"        # candidate-sweep strategy (engine dispatch)
    max_workers: Optional[int] = None    # worker processes (parallel/speculative)
    bounds: str = "baseline"             # bound-seeded pruning ("baseline" or "off")
    cache_dir: Optional[str] = None      # algorithm-cache directory (None disables)
    export_dir: Optional[str] = None     # write each point's algorithm here (None disables)
    export_format: str = "xml"           # "xml", "plan" or "both"


def _frontier_rows(frontier: ParetoFrontier, k: int) -> List[Dict[str, object]]:
    rows = []
    for point in frontier.points:
        rows.append(
            {
                "collective": point.collective,
                "k": k,
                "C": point.chunks_per_node,
                "S": point.steps,
                "R": point.rounds,
                "optimality": point.optimality_label(),
                "pareto": point.pareto_optimal,
                "status": point.status.value,
                "time_s": round(point.synthesis_time, 2),
                # Distinguish freshly solved rows from cache replays so the
                # reported times are interpretable.
                "solved_by": point.provenance_label(),
            }
        )
    return rows


def export_frontier_algorithms(
    frontier: ParetoFrontier,
    export_dir,
    *,
    formats: Sequence[str] = ("xml",),
) -> List[str]:
    """Write every SAT frontier point to ``export_dir`` as XML and/or plans.

    ``formats`` may contain ``"xml"``, ``"plan"`` or the shorthand
    ``"both"``.  File names are derived from the point signature
    (``allgather_dgx1_c6_s3_r7.xml``), so re-running a table overwrites
    rather than accumulates.  Returns the file names written.  This is the
    toolchain hook behind both ``SynthesisTableConfig.export_dir`` and the
    CLI's ``repro pareto --export-dir``.
    """
    from pathlib import Path

    from ..interchange import plan_from_algorithm, to_msccl_xml, write_plan

    if "both" in formats:
        formats = ("xml", "plan")
    for fmt in formats:
        if fmt not in ("xml", "plan"):
            raise ValueError(
                f"unknown export format {fmt!r} (expected 'xml', 'plan' or 'both')"
            )
    directory = Path(export_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for point in frontier.points:
        if point.algorithm is None:
            continue
        stem = (
            f"{point.collective.lower()}_{frontier.topology_name}"
            f"_c{point.chunks_per_node}_s{point.steps}_r{point.rounds}"
        )
        if "xml" in formats:
            (directory / f"{stem}.xml").write_text(
                to_msccl_xml(point.algorithm), encoding="utf-8"
            )
            written.append(f"{stem}.xml")
        if "plan" in formats:
            write_plan(plan_from_algorithm(point.algorithm), directory / f"{stem}.json")
            written.append(f"{stem}.json")
    return written


def synthesis_table(
    topology: Topology,
    runs: Sequence[Tuple[str, int]],
    config: Optional[SynthesisTableConfig] = None,
) -> List[Dict[str, object]]:
    """Run Pareto-Synthesize for each (collective, k) request and collect rows."""
    config = config or SynthesisTableConfig()
    cache = None
    if config.cache_dir is not None:
        from ..engine.cache import AlgorithmCache

        cache = AlgorithmCache(config.cache_dir)
    rows: List[Dict[str, object]] = []
    seen: set = set()
    for collective, k in runs:
        if config.collectives and collective not in config.collectives:
            continue
        if config.max_k is not None and k > config.max_k:
            continue
        max_steps = None
        if collective == "Broadcast":
            max_steps = config.broadcast_max_steps
        frontier = pareto_synthesize(
            collective,
            topology,
            k,
            max_steps=max_steps,
            max_chunks=config.max_chunks,
            time_limit_per_instance=config.time_limit_per_instance,
            conflict_limit=config.conflict_limit,
            strategy=config.strategy,
            max_workers=config.max_workers,
            cache=cache,
            bounds=config.bounds,
        )
        if config.export_dir is not None:
            export_frontier_algorithms(
                frontier, config.export_dir, formats=(config.export_format,)
            )
        for row in _frontier_rows(frontier, k):
            key = (row["collective"], row["C"], row["S"], row["R"])
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
    return rows


def table4_rows(config: Optional[SynthesisTableConfig] = None) -> List[Dict[str, object]]:
    """Table 4: synthesized DGX-1 collectives."""
    return synthesis_table(dgx1(), TABLE4_RUNS, config)


def table5_rows(config: Optional[SynthesisTableConfig] = None) -> List[Dict[str, object]]:
    """Table 5: synthesized Gigabyte Z52 (AMD) collectives."""
    return synthesis_table(amd_z52(), TABLE5_RUNS, config)


#: The paper's Table 4 contents, for comparison in EXPERIMENTS.md and tests.
PAPER_TABLE4: Dict[str, List[Tuple[int, int, int, str]]] = {
    "Allgather": [
        (1, 2, 2, "Latency"), (2, 3, 3, ""), (3, 4, 4, ""), (4, 5, 5, ""),
        (5, 6, 6, ""), (6, 7, 7, "Bandwidth"), (6, 3, 7, "Bandwidth"), (2, 2, 3, "Latency"),
    ],
    "Allreduce": [
        (8, 4, 4, "Latency"), (16, 6, 6, ""), (24, 8, 8, ""), (32, 10, 10, ""),
        (40, 12, 12, ""), (48, 14, 14, "Bandwidth"), (48, 6, 14, "Bandwidth"), (16, 4, 6, "Latency"),
    ],
    "Broadcast": [
        (2, 2, 2, "Latency"), (6, 3, 3, ""), (12, 4, 4, ""), (18, 5, 5, ""), (6, 3, 5, ""),
    ],
    "Gather": [
        (1, 2, 2, "Latency"), (2, 3, 3, ""), (3, 4, 4, ""), (4, 5, 5, ""),
        (5, 6, 6, ""), (6, 7, 7, "Bandwidth"), (6, 3, 7, "Bandwidth"), (2, 2, 3, "Latency"),
    ],
    "Alltoall": [
        (8, 3, 3, ""), (8, 2, 3, "Latency"), (24, 8, 8, "Bandwidth"), (24, 2, 8, "Both"),
    ],
}

#: The paper's Table 5 contents.
PAPER_TABLE5: Dict[str, List[Tuple[int, int, int, str]]] = {
    "Allgather": [(1, 4, 4, "Latency"), (2, 7, 7, "Bandwidth"), (2, 4, 7, "Both")],
    "Allreduce": [(8, 8, 8, "Latency"), (16, 14, 14, "Bandwidth"), (16, 8, 14, "Both")],
    "Broadcast": [(2, 4, 4, "Latency"), (4, 5, 5, ""), (6, 6, 6, ""), (8, 7, 7, ""), (10, 8, 8, "")],
    "Gather": [(1, 4, 4, "Latency"), (2, 4, 7, "Both")],
    "Alltoall": [(8, 4, 8, "Both")],
}


def render_table(rows: Iterable[Dict[str, object]], title: str = "") -> str:
    """Aligned-text rendering used by the benchmark harness output."""
    return format_table(list(rows), title=title)
