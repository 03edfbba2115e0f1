"""Plain-text rendering of experiment reports and the claim scorecard.

Benchmarks print the same rows/series the paper's figures show; an
experiment describes them as a :class:`Report` and :func:`render` is the
one place they become text, so the formatting stays consistent and
dependency-free.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence


class Table(NamedTuple):
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]


class Report(NamedTuple):
    """What an experiment prints: tables, then trailing note lines."""

    tables: Sequence[Table]
    notes: Sequence[str] = ()


def render(experiment, values: Dict[str, object]) -> str:
    """The text of ``experiment.report(values)``: blocks a blank line
    apart — the content of ``benchmarks/results/<slug>.txt``."""
    report = experiment.report(values)
    blocks = [format_table(table.headers, table.rows, title=table.title)
              for table in report.tables]
    if report.notes:
        blocks.append("\n".join(report.notes))
    return "\n\n".join(blocks)


def format_scorecard(results: Iterable[Dict[str, object]]) -> str:
    """One line per :func:`~repro.bench.experiments.check_shapes` row:
    id, claim, the paper's value, the measured one, pass/fail."""
    return "\n".join(
        f"{row['id']} · {row['claim']} · paper: {row['paper']} · "
        f"measured: {_fmt_measured(row['measured'])} · {row['status']}"
        for row in results
    )


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        h.ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) if _numeric(cell)
                      else cell.ljust(widths[i])
                      for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt_measured(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(item) for item in value)
    return _fmt(value)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3g}"
        if magnitude >= 100:
            return f"{value:,.1f}"
        return f"{value:.4g}"
    return str(value)


def _numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace("-", "").replace(".", "")
    stripped = stripped.replace("e", "").replace("+", "").replace("%", "")
    return stripped.isdigit() if stripped else False
