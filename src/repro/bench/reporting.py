"""Plain-text table rendering for experiment output.

Every experiment driver returns an :class:`ExperimentResult` whose
``render()`` produces the table the paper-figure regeneration prints —
both in the benchmarks and in ``examples/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

Row = dict[str, Any]


def format_table(rows: list[Row], columns: list[str] | None = None) -> str:
    """Fixed-width text table from a list of dict rows."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column],
                                 len(_fmt(row.get(column, ""))))
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    ruler = "  ".join("-" * widths[c] for c in columns)
    lines = [header, ruler]
    for row in rows:
        lines.append("  ".join(
            _fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class ExperimentResult:
    """Uniform result envelope of one experiment driver."""

    experiment: str
    title: str
    rows: list[Row] = field(default_factory=list)
    columns: list[str] | None = None
    notes: list[str] = field(default_factory=list)
    #: what the driver measured beyond its rows, for its shape check
    data: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """The printable experiment report."""
        parts = [f"== {self.experiment}: {self.title} =="]
        parts.append(format_table(self.rows, self.columns))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def add(self, **row: Any) -> None:
        """Append one table row."""
        self.rows.append(row)
