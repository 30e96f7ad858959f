"""Fixed-width table rendering for experiment output."""

from __future__ import annotations

from typing import Any, List, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> str:
    """Render one experiment's rows as a fixed-width text table."""
    cells: List[List[str]] = [
        [_render(value) for value in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, ""]
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
