"""ASCII table rendering for experiment reports.

The experiment harnesses print paper-style tables (mean ± std cells) to the
terminal; this module owns the formatting so every table in the repo looks
the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["Table", "format_mean_std", "render_series"]


def format_mean_std(mean: float, std: float) -> str:
    """Render ``mean ± std`` the way the paper's tables do (3 decimals)."""
    return f"{mean:.3f} ± {std:.3f}"


@dataclass
class Table:
    """A small immutable-ish ASCII table builder.

    >>> t = Table(["Method", "Regret"], title="Table 2")
    >>> t.add_row(["TSM", "2.014 ± 0.035"])
    >>> print(t.render())  # doctest: +SKIP
    """

    columns: Sequence[str]
    title: str | None = None
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, row: Iterable[object]) -> None:
        cells = [str(c) for c in row]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_row(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

        sep = "-+-".join("-" * w for w in widths)
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * len(sep))
        lines.append(fmt_row(list(self.columns)))
        lines.append(sep)
        lines.extend(fmt_row(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def render_series(
    x_label: str,
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    title: str | None = None,
    digits: int = 3,
) -> str:
    """Render figure-style data (one x column, one column per method).

    Used by the Fig. 4/5 harnesses to print the exact numbers behind each
    plotted line so the reproduction can be compared against the paper.
    """
    table = Table([x_label, *series.keys()], title=title)
    for i, x in enumerate(xs):
        row: list[str] = [f"{x:g}"]
        for name, ys in series.items():
            if len(ys) != len(xs):
                raise ValueError(f"series {name!r} has {len(ys)} points, expected {len(xs)}")
            row.append(f"{ys[i]:.{digits}f}")
        table.add_row(row)
    return table.render()
