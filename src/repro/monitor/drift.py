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
The arithmetic of a detector lives in its ``scan(xs, i)``: consume the
floats ``xs[i:]`` up to and including the first one that alarms and
return that one's index (``len(xs)`` when none does) — a window's worth
of samples costs one call with the state in locals, and ``update(x)`` is
a scan of one.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

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
        return self.scan((x,)) == 0

    def scan(self, xs: "Sequence[float]", i: int = 0) -> int:
        n, mean, cum, cum_min = self.n, self.mean, self.cum, self.cum_min
        delta, threshold, min_samples = self.delta, self.threshold, self.min_samples
        for i in range(i, len(xs)):
            x = xs[i]
            n += 1
            mean += (x - mean) / n
            cum += x - mean - delta
            cum_min = min(cum_min, cum)
            if n >= min_samples and cum - cum_min > threshold:
                break
        else:
            i = len(xs)
        self.n, self.mean, self.cum, self.cum_min = n, mean, cum, cum_min
        return i

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
        return self.scan((x,)) == 0

    def scan(self, xs: "Sequence[float]", i: int = 0) -> int:
        n, reference, g_pos, g_neg = self.n, self.reference, self.g_pos, self.g_neg
        drift, threshold, warmup = self.drift, self.threshold, self.warmup
        for i in range(i, len(xs)):
            x = xs[i]
            n += 1
            if n <= warmup:
                reference += (x - reference) / n
                continue
            dev = x - reference
            g_pos = max(0.0, g_pos + dev - drift)
            g_neg = max(0.0, g_neg - dev - drift)
            if max(g_pos, g_neg) > threshold:
                break
        else:
            i = len(xs)
        self.n, self.reference, self.g_pos, self.g_neg = n, reference, g_pos, g_neg
        return i

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
        return self.scan((x,)) == 0

    def scan(self, xs: "Sequence[float]", i: int = 0) -> int:
        window, current = self.window, self._current
        for i in range(i, len(xs)):
            x = xs[i]
            if self._ref_q is None:
                self._reference.append(x)
                if len(self._reference) == window:
                    self._ref_q = self._quantile(sorted(self._reference))
                continue
            current.append(x)
            insort(self._sorted, x)
            if len(current) > window:
                old = current.popleft()
                k = bisect_left(self._sorted, old)
                if k < len(self._sorted) and self._sorted[k] == old:
                    del self._sorted[k]
                else:  # a NaN (it orders nowhere) is or was in the window
                    self._sorted = sorted(current)
            if len(current) == window and self.stat > self.factor:
                return i
        return len(xs)

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
    ``update_many`` is ``update`` over a sequence, sample for sample.
    """

    def __init__(self, signal: str, detectors: "dict[str, object]") -> None:
        if not detectors:
            raise ValueError("DriftBank needs at least one detector")
        self.signal = signal
        self.detectors = dict(detectors)
        self.samples = 0
        self.fired: "list[tuple[int, str]]" = []  # (sample index, detector)

    def update(self, x: float) -> "list[str]":
        return [name for _, name, _ in self.update_many((x,))]

    def update_many(self, values) -> "list[tuple[int, str, float]]":
        """Feed ``values`` in order; one ``(offset, detector, stat)`` per alarm.

        Alarms come back as sample-by-sample ``update`` raises them — by
        offset into ``values``, then in detector order — and ``stat`` is
        the statistic that crossed, read before the re-arm zeroes it.  The
        detectors share no state, so each scans the whole sequence on its
        own, re-armed after every alarm.
        """
        xs = [float(v) for v in values]
        hits: "list[tuple[int, int, str, float]]" = []
        for rank, (name, det) in enumerate(self.detectors.items()):
            i = det.scan(xs, 0)  # type: ignore[attr-defined]
            while i < len(xs):
                hits.append((i, rank, name, det.stat))  # type: ignore[attr-defined]
                det.reset()  # type: ignore[attr-defined]
                i = det.scan(xs, i + 1)  # type: ignore[attr-defined]
        hits.sort()
        self.fired.extend((self.samples + i + 1, name) for i, _, name, _ in hits)
        self.samples += len(xs)
        return [(i, name, stat) for i, _, name, stat in hits]

    def state(self) -> dict:
        return {
            "signal": self.signal,
            "samples": self.samples,
            "stats": {n: round(d.stat, 6) for n, d in self.detectors.items()},  # type: ignore[attr-defined]
            "fired": list(self.fired),
        }
