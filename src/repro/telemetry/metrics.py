"""Typed metric instruments: counters, gauges, fixed-bucket histograms.

All instruments are plain in-memory accumulators — observing is a couple
of dict/float operations, so they are cheap enough for solver hot loops
when telemetry is enabled, and cost one branch when it is not (the
module-level helpers in :mod:`repro.telemetry.recorder` guard every call
with ``recorder.enabled``).

Histograms use *fixed* bucket boundaries chosen at creation (Prometheus
``le`` semantics: bucket ``i`` counts values ``bounds[i-1] < v <=
bounds[i]``, with one overflow bucket above the last boundary).  Fixed
boundaries keep observation O(log #buckets) and make aggregates from
different runs mergeable bucket-by-bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "quantile",
    "ITER_BUCKETS",
    "LEVEL_BUCKETS",
    "SIZE_BUCKETS",
    "VARIANCE_BUCKETS",
    "TIME_BUCKETS_S",
    "DEFAULT_BUCKETS",
]

#: Solver iterations-to-converge (Algorithm 1 / batch mirror descent).
ITER_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 50.0, 80.0, 120.0, 200.0, 300.0, 500.0)
#: Halving-cascade levels (step = lr / 2^h, h small).
LEVEL_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
#: Batch sizes / queue depths.
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
#: Zeroth-order estimator sample variances (log-spaced decades).
VARIANCE_BUCKETS = tuple(10.0**e for e in range(-8, 5))
#: Wall-clock durations in seconds (log-spaced).
TIME_BUCKETS_S = tuple(10.0**e for e in range(-6, 3))
#: Generic fallback boundaries (log-spaced decades around 1.0).
DEFAULT_BUCKETS = tuple(10.0**e for e in range(-4, 5))


class Counter:
    """Monotonic accumulator (float increments allowed)."""

    __slots__ = ("name", "value", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.calls = 0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        self.value += amount
        self.calls += 1

    def state(self) -> dict:
        return {"value": self.value, "calls": self.calls}


class Gauge:
    """Last-value instrument."""

    __slots__ = ("name", "value", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.calls = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.calls += 1

    def state(self) -> dict:
        return {"value": self.value, "calls": self.calls}


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max sidecars."""

    __slots__ = ("name", "bounds", "counts", "count", "total", "vmin", "vmax", "calls")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        b = tuple(float(x) for x in bounds)
        if len(b) < 1 or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"histogram {name!r}: bounds must be strictly increasing")
        self.name = name
        self.bounds = b
        self.counts = [0] * (len(b) + 1)  # last slot = overflow (> bounds[-1])
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.calls = 0

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``n`` occurrences of ``value`` (bulk form for vectorized
        call sites such as the cascade-level counts)."""
        if n <= 0:
            return
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += n
        self.count += n
        self.total += v * n
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        self.calls += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "calls": self.calls,
        }


def quantile(histogram: "Histogram | dict", q: float) -> float:
    """Upper-boundary quantile estimate from cumulative bucket counts.

    Accepts a live :class:`Histogram` or its :meth:`Histogram.state` dict
    (the form stored in JSONL ``metric`` lines and returned by
    ``Recorder.aggregate()``/``aggregate_events``).  The estimate is the
    upper boundary of the bucket containing the ``q``-quantile — exact to
    bucket resolution, and the single shared implementation behind the
    recorder's console summary and the quality monitor.

    The result is always a finite float:

    - an *empty* histogram (``count == 0`` or no ``counts``) returns 0.0;
    - a quantile landing in the *overflow* bucket returns the observed
      maximum when the state carries a finite ``max`` sidecar, and falls
      back to the last bucket boundary (the largest finite value the
      buckets can attest) when ``max`` is missing, ``None``, or
      non-finite — merged or hand-built states routinely lack it, and a
      bucket-resolution estimate must never surface ``+inf``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    h = histogram.state() if isinstance(histogram, Histogram) else histogram
    counts = h.get("counts") or []
    if not h.get("count") or not counts:
        return 0.0
    bounds = h["bounds"]

    def overflow_value() -> float:
        vmax = h.get("max")
        if isinstance(vmax, (int, float)) and isfinite(vmax):
            return float(vmax)
        return float(bounds[-1])

    target = q * h["count"]
    cum = 0
    for i, c in enumerate(counts):
        cum += c
        if cum >= target and c:
            return float(bounds[i]) if i < len(bounds) else overflow_value()
    return overflow_value()
