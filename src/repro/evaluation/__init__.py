"""Evaluation harness: regenerates every table and figure of the paper."""

from .figures import (
    DEFAULT_SIZES,
    FIGURE4_POINTS,
    FIGURE5_POINTS,
    FIGURE6_POINTS,
    FigureResult,
    figure4_allgather_dgx1,
    figure5_allreduce_dgx1,
    figure6_allgather_amd,
)
from .reporting import format_series, format_table
from .tables import (
    PAPER_TABLE4,
    PAPER_TABLE5,
    export_frontier_algorithms,
    table3_rows,
)

__all__ = [
    "DEFAULT_SIZES",
    "FIGURE4_POINTS",
    "FIGURE5_POINTS",
    "FIGURE6_POINTS",
    "FigureResult",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "export_frontier_algorithms",
    "figure4_allgather_dgx1",
    "figure5_allreduce_dgx1",
    "figure6_allgather_amd",
    "format_series",
    "format_table",
    "table3_rows",
]
