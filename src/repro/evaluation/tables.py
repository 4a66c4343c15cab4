"""The paper's tables: Table 3 as rows, Tables 4 and 5 as reference data.

:func:`table3_rows` lists NCCL's hand-written collectives.  Tables 4 and 5
are regenerated by ``pareto_synthesize`` (``benchmarks/`` runs them) and
compared with :data:`PAPER_TABLE4` / :data:`PAPER_TABLE5`;
``bench/expected.json`` records which of their rows the benchmark measures.
:func:`export_frontier_algorithms` writes a frontier's algorithms out.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..baselines import nccl_table3
from ..core import ParetoFrontier


def table3_rows() -> List[Dict[str, object]]:
    """Table 3: NCCL's hand-written collectives and their (C, S, R)."""
    rows = []
    for entry in nccl_table3():
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
    toolchain hook behind the CLI's ``repro pareto --export-dir``.
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


#: The paper's Table 4 contents, for comparison with the regenerated rows.
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
