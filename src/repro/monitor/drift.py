"""Streaming drift detectors for prediction-quality signals.

Decision-focused systems are drift-sensitive in a way MSE dashboards do
not capture: a small bias in predicted execution times can flip an
argmin and cost real makespan while barely moving the average error
(the *Predict-and-Critic* observation; *Faster Matchings via Learned
Duals* shows stale learned inputs degrade the optimization itself).
This module provides three classic change detectors, all O(1) memory
per signal, consumed by :class:`repro.monitor.quality.QualityMonitor`:

- :class:`PageHinkley` — the Page–Hinkley test for an upward mean shift
  (one-sided; prediction *errors* only ever drift up when a model goes
  stale);
- :class:`Cusum` — two-sided tabular CUSUM against a frozen reference
  mean, for signed signals such as reliability calibration error where
  over- and under-confidence both matter;
- :class:`QuantileWindow` — a windowed error-quantile comparison
  (current window's q-quantile vs a frozen reference window) that
  catches tail blow-ups a mean test averages away.

Every detector is deterministic given its input stream: ``update``
returns ``True`` on the sample that crosses the alarm threshold, and
the caller decides what to do (emit an alert, ``reset()``, cool down).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

__all__ = ["PageHinkley", "Cusum", "QuantileWindow", "DriftBank"]


@dataclass
class PageHinkley:
    """Page–Hinkley test for an upward shift of a stream's mean.

    Maintains the cumulative deviation from the running mean minus an
    allowed drift ``delta``; alarms when the deviation climbs more than
    ``threshold`` above its historical minimum.  ``min_samples`` gates
    the alarm until the running mean is meaningful.
    """

    delta: float = 0.05
    threshold: float = 5.0
    min_samples: int = 40

    n: int = field(default=0, init=False)
    mean: float = field(default=0.0, init=False)
    cum: float = field(default=0.0, init=False)
    cum_min: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.delta < 0:
            raise ValueError("need threshold > 0 and delta >= 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @property
    def stat(self) -> float:
        """Current test statistic (distance above the running minimum)."""
        return self.cum - self.cum_min

    def update(self, x: float) -> bool:
        """Consume one sample; ``True`` when the alarm threshold crosses."""
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self.cum += x - self.mean - self.delta
        self.cum_min = min(self.cum_min, self.cum)
        return self.n >= self.min_samples and self.stat > self.threshold

    def reset(self) -> None:
        """Forget everything (post-alarm re-arm or post-retrain restart)."""
        self.n = 0
        self.mean = self.cum = self.cum_min = 0.0


@dataclass
class Cusum:
    """Two-sided tabular CUSUM against a frozen reference mean.

    The first ``warmup`` samples estimate the in-control mean; after
    that ``g⁺``/``g⁻`` accumulate positive/negative deviations beyond
    the allowed ``drift`` and alarm past ``threshold``.  Freezing the
    reference (unlike Page–Hinkley's running mean) makes the detector
    sensitive to slow ramps that a tracking mean would absorb.
    """

    drift: float = 0.05
    threshold: float = 5.0
    warmup: int = 40

    n: int = field(default=0, init=False)
    reference: float = field(default=0.0, init=False)
    g_pos: float = field(default=0.0, init=False)
    g_neg: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.drift < 0:
            raise ValueError("need threshold > 0 and drift >= 0")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")

    @property
    def stat(self) -> float:
        return max(self.g_pos, self.g_neg)

    def update(self, x: float) -> bool:
        self.n += 1
        if self.n <= self.warmup:
            self.reference += (x - self.reference) / self.n
            return False
        dev = x - self.reference
        self.g_pos = max(0.0, self.g_pos + dev - self.drift)
        self.g_neg = max(0.0, self.g_neg - dev - self.drift)
        return self.stat > self.threshold

    def reset(self) -> None:
        self.n = 0
        self.reference = self.g_pos = self.g_neg = 0.0


@dataclass
class QuantileWindow:
    """Windowed error-quantile monitor: current vs frozen reference tail.

    The first ``window`` samples form a frozen reference; afterwards the
    detector compares the ``q``-quantile of the most recent ``window``
    samples against the reference quantile and alarms when the ratio
    exceeds ``factor``.  ``floor`` keeps near-zero reference quantiles
    (a *very* good predictor) from turning numeric noise into alarms.
    """

    q: float = 0.9
    window: int = 100
    factor: float = 2.5
    floor: float = 1e-3

    _reference: "list[float]" = field(default_factory=list, init=False, repr=False)
    _current: "deque[float]" = field(default_factory=deque, init=False, repr=False)
    #: ``_current`` in ascending order, kept beside it: every sample is
    #: one ``bisect`` in and one out, not a sort of the whole window.
    _sorted: "list[float]" = field(default_factory=list, init=False, repr=False)
    _ref_q: "float | None" = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q}")
        if self.window < 2 or self.factor <= 1.0:
            raise ValueError("need window >= 2 and factor > 1")

    def _quantile(self, ordered: "list[float]") -> float:
        return ordered[min(len(ordered) - 1, int(self.q * len(ordered)))]

    @property
    def stat(self) -> float:
        """Current-to-reference quantile ratio (0 while warming up)."""
        if self._ref_q is None or len(self._current) < self.window:
            return 0.0
        return self._quantile(self._sorted) / max(self._ref_q, self.floor)

    def update(self, x: float) -> bool:
        if self._ref_q is None:
            self._reference.append(x)
            if len(self._reference) == self.window:
                self._ref_q = self._quantile(sorted(self._reference))
            return False
        self._current.append(x)
        insort(self._sorted, x)
        if len(self._current) > self.window:
            old = self._current.popleft()
            i = bisect_left(self._sorted, old)
            if i < len(self._sorted) and self._sorted[i] == old:
                del self._sorted[i]
            else:  # a NaN (it orders nowhere) is or was in the window
                self._sorted = sorted(self._current)
        return len(self._current) == self.window and self.stat > self.factor

    def reset(self) -> None:
        """Re-arm against a *fresh* reference (post-retrain semantics)."""
        self._reference.clear()
        self._current.clear()
        self._sorted.clear()
        self._ref_q = None


class DriftBank:
    """A named set of detectors sharing one scalar signal.

    ``update`` feeds every detector and returns the names of those that
    fired on this sample; fired detectors are reset immediately so one
    sustained shift produces one alarm per detector, not one per sample
    (re-arming against post-shift data keeps them quiet until the next
    regime change — exactly the cooldown a retraining trigger wants).
    """

    def __init__(self, signal: str, detectors: "dict[str, object]") -> None:
        if not detectors:
            raise ValueError("DriftBank needs at least one detector")
        self.signal = signal
        self.detectors = dict(detectors)
        self.samples = 0
        self.fired: "list[tuple[int, str]]" = []  # (sample index, detector)

    def update(self, x: float) -> "list[str]":
        self.samples += 1
        hits: "list[str]" = []
        for name, det in self.detectors.items():
            if det.update(x):  # type: ignore[attr-defined]
                hits.append(name)
                self.fired.append((self.samples, name))
                det.reset()  # type: ignore[attr-defined]
        return hits

    def state(self) -> dict:
        return {
            "signal": self.signal,
            "samples": self.samples,
            "stats": {n: round(d.stat, 6) for n, d in self.detectors.items()},  # type: ignore[attr-defined]
            "fired": list(self.fired),
        }
