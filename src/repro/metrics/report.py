"""Aggregation of per-round metrics into paper-style mean ± std rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.utils.tables import Table, format_mean_std

__all__ = ["MetricSample", "MethodReport", "aggregate", "comparison_table"]


@dataclass(frozen=True)
class MetricSample:
    """Metrics of one evaluation round (one test instance, one seed)."""

    regret: float
    reliability: float
    utilization: float


@dataclass
class MethodReport:
    """All evaluation rounds of one method, with mean ± std accessors."""

    method: str
    samples: list[MetricSample] = field(default_factory=list)

    def add(self, sample: MetricSample) -> None:
        self.samples.append(sample)

    def _stat(self, name: str) -> tuple[float, float]:
        if not self.samples:
            raise ValueError(f"no samples recorded for method {self.method!r}")
        values = np.array([getattr(s, name) for s in self.samples])
        return float(values.mean()), float(values.std())

    @property
    def regret(self) -> tuple[float, float]:
        return self._stat("regret")

    @property
    def reliability(self) -> tuple[float, float]:
        return self._stat("reliability")

    @property
    def utilization(self) -> tuple[float, float]:
        return self._stat("utilization")

    def as_row(self) -> list[str]:
        return [
            self.method,
            format_mean_std(*self.regret),
            format_mean_std(*self.reliability),
            format_mean_std(*self.utilization),
        ]


def aggregate(method: str, samples: Iterable[MetricSample]) -> MethodReport:
    """Build a report from an iterable of samples."""
    report = MethodReport(method)
    for s in samples:
        report.add(s)
    return report


def comparison_table(
    reports: "Mapping[str, MethodReport] | Iterable[MethodReport]",
    *,
    title: str | None = None,
) -> Table:
    """Render the paper's Method | Regret | Reliability | Utilization table."""
    if isinstance(reports, Mapping):
        reports = list(reports.values())
    table = Table(["Method", "Regret", "Reliability", "Utilization"], title=title)
    for report in reports:
        table.add_row(report.as_row())
    return table
