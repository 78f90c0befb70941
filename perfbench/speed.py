"""Machine speed reference: a fixed kernel timed between jobs.

On a shared virtual machine the speed of one core switches between a fast
and a slow state (about 1.7x apart) many times a second, and the share of
slow time drifts by 15-25% from one run to the next.  Each run therefore
times this kernel before every job and once after the last.  A job's
slowness is the mean of the samples nearest to it (``WINDOW`` before and
after) over ``REF_SECONDS``, and its time is reported divided by it, in
reference seconds.  The kernel is numpy and plain Python only, like
picband's hot paths, and nothing in it depends on picband, so a change to
picband cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_SECONDS = 0.005  # typical sample on the reference machine (two-vCPU Xeon VM)
WINDOW = 5  # samples each side of a job that set its slowness

_rng = np.random.default_rng(0)
_R = _rng.standard_normal((6, 6, 6, 6))
_X = _rng.standard_normal((64, 4, 6))
_KEYS = [f"k{int(x)}" for x in _rng.integers(0, 200, 400)]


def sample() -> float:
    """Wall time of one pass of the fixed kernel: batched pullbacks of a
    four-tensor along 64 frames, then dictionary and sorting work."""
    t0 = time.perf_counter()
    for _ in range(3):
        T = np.einsum("ijkl,bai->bajkl", _R, _X)
        T = np.einsum("bajkl,bcj->backl", T, _X)
        T = np.einsum("backl,bdk->bacdl", T, _X)
        np.einsum("bacdl,bel->bacde", T, _X)
    counts = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + len(key)
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


def slowness(samples) -> float:
    """Mean sample time over the reference time."""
    return statistics.fmean(samples) / REF_SECONDS


def reference_seconds(times, samples) -> list[float]:
    """Each job time divided by the slowness of the WINDOW samples taken
    before it and the WINDOW after it (fewer at either end); ``samples[i]``
    was taken just before job ``i`` and ``samples[-1]`` after the last."""
    if len(samples) != len(times) + 1:
        raise ValueError("need one speed sample before each job and one after the last")
    return [t / slowness(samples[max(0, i + 1 - WINDOW):i + 1 + WINDOW]) for i, t in enumerate(times)]
