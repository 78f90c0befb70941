"""Summary statistics for job timings."""

from __future__ import annotations

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile
TAIL_MIN_SAMPLES = 2 * TAIL_BEYOND  # below this the tail would sit under the median


def tail(samples) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Nearest-rank percentile p of N samples is the ceil(pN/100)-th smallest,
    so the highest p leaving ten samples above it is 100 (N - 10) / N and its
    value is the eleventh largest sample.  Returns (value, p, N), or None
    when N < 20 and that percentile would fall below the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
