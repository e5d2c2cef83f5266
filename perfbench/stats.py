"""Order statistics the benchmark reports.

Percentiles are nearest-rank: the value at 1-based rank ``ceil(q/100 * n)``
of the sorted sample, so every reported number is one that was measured.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Percentiles a tail may be reported at, highest first.  The steps are
#: coarse on purpose: runs of one workload whose sample counts differ by a
#: few (a slower host, a faster commit) still report the same percentile.
TAIL_LADDER = (99.9, 95.0, 75.0)

#: A tail must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def rank(q: float, n: int) -> int:
    """0-based index of the nearest-rank ``q``-th percentile of ``n``."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(0, min(n - 1, math.ceil(q / 100.0 * n) - 1))


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[rank(q, len(ordered))]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it
    that is not the median's own rank; ``ValueError`` when none exists."""
    for q in TAIL_LADDER:
        index = rank(q, n)
        if n - 1 - index >= TAIL_BEYOND and index > rank(50.0, n):
            return q
    raise ValueError(
        f"{n} samples leave no tail with {TAIL_BEYOND} samples beyond it "
        "above the median")


def min_samples_for_tail() -> int:
    """The smallest sample count :func:`tail_percentile` accepts."""
    n = 1
    while True:
        try:
            tail_percentile(n)
            return n
        except ValueError:
            n += 1


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """p50, the tail value, the tail's percentile and the sample count."""
    n = len(latencies)
    q = tail_percentile(n)
    return {"p50": median(latencies), "tail": percentile(latencies, q),
            "tail_percentile": q, "samples": n}


def throughput(completions: int, elapsed_s: float) -> float:
    """Closed-loop completions per elapsed second."""
    if elapsed_s <= 0.0:
        raise ValueError("elapsed time must be positive")
    return completions / elapsed_s
