"""ASCII table rendering for experiment output.

Every benchmark prints its rows through :func:`render_table`, so paper-vs-
measured comparisons look uniform across the harness.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str | None = None,
) -> str:
    """Render a boxed ASCII table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(char: str = "-") -> str:
        return "+" + "+".join(char * (w + 2) for w in widths) + "+"

    def fmt_row(values: Sequence[str]) -> str:
        return "| " + " | ".join(v.rjust(w) for v, w in zip(values, widths)) + " |"

    out = [title, line("="), fmt_row(list(headers)), line("=")]
    for row in cells:
        out.append(fmt_row(row))
    out.append(line())
    if note:
        out.append(note)
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
