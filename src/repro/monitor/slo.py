"""Declarative SLOs with burn-rate alerting over dispatch windows.

An :class:`SLORule` states an objective ("at most 5% of tasks wait more
than 2 hours") and the monitor tracks the *bad fraction* over two
rolling window lengths — a fast window that reacts within a few
dispatch windows and a slow window that filters one-off spikes.  The
burn rate is ``bad_fraction / objective``; an alert fires on the rising
edge when **both** windows burn above ``burn_threshold``, the standard
multi-window multi-burn-rate pattern (it pages for sustained budget
burn, not for a single bad batch).

Measurements arrive per dispatch window as a ``(bad, total)`` count
pair, so rules compose over any per-task predicate (wait above bound,
task shed, reliability constraint violated) without the monitor keeping
raw samples around.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["SLORule", "SLOStatus", "SLOMonitor"]


@dataclass(frozen=True)
class SLORule:
    """One service-level objective over a per-task bad-event predicate."""

    name: str
    #: Allowed long-run bad fraction (the error budget), in (0, 1).
    objective: float
    #: Rolling lengths in *dispatch windows*, fast < slow.
    fast_windows: int = 6
    slow_windows: int = 30
    #: Alert when both rolling burn rates exceed this multiple of budget.
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"{self.name}: objective must be in (0, 1)")
        if not 0 < self.fast_windows <= self.slow_windows:
            raise ValueError(f"{self.name}: need 0 < fast_windows <= slow_windows")
        if self.burn_threshold <= 0:
            raise ValueError(f"{self.name}: burn_threshold must be > 0")


@dataclass
class _RollingCounts:
    """The last ``size`` windows' ``(bad, total)`` pairs and their sums.

    The sums are integers kept in step with the buffer (add on the way in,
    subtract on the way out), so a burn rate is one division, not a pass
    over the buffer, and exactly what re-summing would give.
    """

    size: int
    buf: "deque[tuple[int, int]]" = field(default_factory=deque, repr=False)
    bad: int = 0
    total: int = 0

    def push(self, bad: int, total: int) -> None:
        self.buf.append((bad, total))
        self.bad += bad
        self.total += total
        if len(self.buf) > self.size:
            old_bad, old_total = self.buf.popleft()
            self.bad -= old_bad
            self.total -= old_total

    def burn(self, objective: float) -> float:
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / objective


@dataclass
class SLOStatus:
    """Rolling state of one rule (window counts plus current burn)."""

    rule: SLORule
    breaching: bool = False  # rising-edge latch
    alerts: int = 0

    def __post_init__(self) -> None:
        self.fast = _RollingCounts(self.rule.fast_windows)
        self.slow = _RollingCounts(self.rule.slow_windows)

    @property
    def fast_burn(self) -> float:
        return self.fast.burn(self.rule.objective)

    @property
    def slow_burn(self) -> float:
        return self.slow.burn(self.rule.objective)

    def observe(self, bad: int, total: int) -> bool:
        """Push one window's counts; ``True`` on a fresh breach edge."""
        if bad < 0 or total < bad:
            raise ValueError(f"{self.rule.name}: need 0 <= bad <= total")
        self.fast.push(bad, total)
        self.slow.push(bad, total)
        # Cold-start gate: with fewer windows than the fast length even a
        # single bad sample burns "infinitely"; hold alerts until the
        # slow buffer holds at least one fast window's worth of history.
        warmed = len(self.slow.buf) >= self.rule.fast_windows
        burning = warmed and (
            self.fast_burn > self.rule.burn_threshold
            and self.slow_burn > self.rule.burn_threshold
        )
        edge = burning and not self.breaching
        self.breaching = burning
        if edge:
            self.alerts += 1
        return edge

    def state(self) -> dict:
        return {
            "name": self.rule.name,
            "objective": self.rule.objective,
            "fast_burn": round(self.fast_burn, 6),
            "slow_burn": round(self.slow_burn, 6),
            "breaching": self.breaching,
            "alerts": self.alerts,
        }


class SLOMonitor:
    """A set of named SLO rules fed window count-pairs by signal name."""

    def __init__(self, rules: "list[SLORule]") -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO rule names: {names}")
        self.status = {r.name: SLOStatus(rule=r) for r in rules}

    def observe(self, name: str, bad: int, total: int) -> bool:
        """Feed one rule; ``True`` when that rule newly breaches."""
        return self.status[name].observe(bad, total)

    def state(self) -> "list[dict]":
        return [s.state() for s in self.status.values()]
