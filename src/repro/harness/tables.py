"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.core.timing import Verdict

__all__ = ["render_table", "ExperimentTable"]


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], indent: str = "") -> str:
    """Render an aligned, boxless text table."""
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = [
        indent + "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        indent + "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in formatted:
        lines.append(indent + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentTable:
    """One experiment's regenerated table.

    Attributes:
        experiment: Identifier, e.g. ``"E1"``.
        title: Human-readable title.
        headers: Column names.
        rows: Row values (as dicts keyed by header for robustness).
        notes: Free-form notes: analytic bounds, shape expectations, caveats.
        verdicts: The paper's claims checked on this table (full scale only;
            see :data:`repro.core.timing.CLAIMS`), one line each after the notes.
    """

    experiment: str
    title: str
    headers: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    verdicts: List[Verdict] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    @classmethod
    def from_result_set(
        cls,
        results: Any,
        *,
        experiment: str,
        title: str,
        group: Sequence[str],
        columns: Mapping[str, Callable[[Any], Any]],
        notes: str = "",
    ) -> "ExperimentTable":
        """Render a :class:`~repro.harness.experiment.ResultSet` as a table.

        One table row per ``group`` key (tag names, in grid order); each
        ``columns`` entry maps a header to an aggregator called with that
        group's sub-``ResultSet``.
        """
        table = cls(
            experiment=experiment,
            title=title,
            headers=[*group, *columns],
            notes=notes,
        )
        for key, subset in results.group_by(*group).items():
            row = dict(zip(group, key))
            for header, aggregate in columns.items():
                row[header] = aggregate(subset)
            table.add_row(**row)
        return table

    def column(self, header: str) -> List[Any]:
        return [row.get(header) for row in self.rows]

    def render(self) -> str:
        body = render_table(
            self.headers, [[row.get(header) for header in self.headers] for row in self.rows]
        )
        lines = [f"{self.experiment}: {self.title}", body]
        if self.notes:
            lines.append(f"notes: {self.notes}")
        for verdict in self.verdicts:
            lines.append(
                f"verdict {verdict.name}: {'pass' if verdict.passed else 'FAIL'} "
                f"({_format_cell(verdict.measured)} {verdict.relation} {_format_cell(verdict.limit)})"
            )
        return "\n".join(lines)
