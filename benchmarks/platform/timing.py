"""Machine calibration and the order statistics every metric is reported with.

This box's speed wanders by up to 2x over tens of seconds (same code, same
inputs: 0.45 s to 1.4 s per episode was observed, CPU time moving with
wall time, so it is contention, not descheduling), on top of noise that is
new every ~100 ms.  A raw wall-clock figure of a 12 s run then spreads
12-48 % between runs, wider than any bound worth gating on.  Every timed
region is therefore bracketed by a fixed reference kernel, and the gated
timings are *calibrated*: the region's seconds times ``CALIB_REF_S / kernel
slice time``, the time the region would have taken on a machine that runs
a kernel slice in ``CALIB_REF_S``.  They are named as such
(``tasks_per_calib_s``, ``decide_p50_calib_ms``; ``setup_s`` has its name
from the driver) and the raw wall-clock figures (``tasks_per_s``,
``decide_p50_ms``, ``setup_raw_s``) are reported beside them, ungated.

A calibrated figure compares runs of one machine and toolchain: another
box, NumPy or Python changes the kernel's cost relative to the workloads',
which shifts every calibrated figure at once.  History entries carry the
fingerprint, and ``compare`` says when two sets differ in it.

The kernel has to run close to the work it corrects, and for a good share
of its time.  On 480 alternating readings and 0.5 s episodes of one fixed
input, a block of 16 episodes spread 18 % raw and 3.3 % with each episode
scaled by the quarter-second readings on either side of it; best-of-k
episodes were worse than medians (the noise is a wander, not one-sided
bursts), and a kernel five times shorter left the ratio as noisy as the raw
time.  The raw slice time is itself reported (``machine.calib_ms``), and
the traced pass reports raw seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The reference machine's seconds per kernel slice.  This box reads
#: 11-24 ms, 12-20 ms as the median of a run (``history.jsonl``), so a
#: calibrated figure is close to the raw one of a typical run here.
CALIB_REF_S = 0.015
#: How long the kernel runs between two timed regions.
CALIB_SECONDS = 0.25

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((3, 16))
_WIDE = _RNG.random((24, 64)).astype(np.float32)
_LEFT, _RIGHT = _RNG.random((32, 33)), _RNG.random((33, 32))


def _slice() -> float:
    """One slice of the reference kernel.

    The mix mirrors what the workloads execute: solver-shaped small-array
    NumPy calls (dispatch-bound), predictor/block-solve-shaped medium
    arrays (float32 exp and a matmul), and a pure-Python loop (the
    dispatcher's own bookkeeping).
    """
    acc = 0.0
    for i in range(750):
        z = _SMALL * np.exp(-np.clip(0.5 * _SMALL, -50.0, 50.0))
        x = z / z.sum(axis=0, keepdims=True)
        acc += float(np.abs(x).max()) + float((x * _SMALL).sum(axis=1).max())
        acc += i * 0.5
    for _ in range(75):
        acc += float(np.exp(-_WIDE).sum()) + float(np.maximum(_LEFT @ _RIGHT, 0.0).sum())
    queue = []
    for i in range(10000):
        queue.append(i * 0.5)
        acc += queue[i // 2]
    return acc


def calibrate(seconds: float = CALIB_SECONDS) -> float:
    """Mean seconds per kernel slice over about ``seconds`` of running it."""
    slices = 0
    acc = 0.0
    start = time.perf_counter()
    while True:
        acc += _slice()
        slices += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    if not np.isfinite(acc):  # keeps the arithmetic observable
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return elapsed / slices


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))
