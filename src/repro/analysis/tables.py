"""Fixed-width table rendering for benchmark output.

Every benchmark prints one or more tables in this format, so the
`bench_output.txt` artefact reads like the paper's own tables.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table.

    >>> print(format_table(["n", "hops"], [[100, 1.87]], title="demo"))
    === demo ===
    n   | hops
    ----+------
    100 | 1.870
    """
    rendered: List[List[str]] = [[_render_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(f"=== {title} ===")
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
