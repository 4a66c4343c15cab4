"""Plain-text reporting helpers shared by the tables/figures harnesses."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: List[Dict[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned text table."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    if not rows:
        lines.append("(no rows)")
        return "\n".join(lines)
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def format_series(
    series: Dict[str, List[float]],
    x_values: Sequence[float],
    x_label: str = "size",
    value_format: str = "{:.3f}",
) -> str:
    """Render figure series (one column per named series) as text."""
    rows: List[Dict[str, object]] = []
    for index, x in enumerate(x_values):
        row: Dict[str, object] = {x_label: x}
        for name, values in series.items():
            row[name] = value_format.format(values[index]) if index < len(values) else ""
        rows.append(row)
    return format_table(rows)
