"""Order statistics for the benchmark's reported timings.

A tail percentile is only reported when the sample supports it: at
least ten samples must lie beyond it, so p99 needs 1000 samples and
p50 needs 20.  :func:`percentile` refuses anything less instead of
quietly reporting the maximum.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def required_samples(q: float) -> int:
    """Smallest sample size with ``MIN_BEYOND`` samples beyond ``q``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(round(MIN_BEYOND * 100.0 / (100.0 - q), 9))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises :class:`TooFewSamples` when fewer than ``MIN_BEYOND``
    samples would lie beyond it.
    """
    need = required_samples(q)
    if len(values) < need:
        raise TooFewSamples(
            f"p{q:g} needs {need} samples ({MIN_BEYOND} beyond it), "
            f"got {len(values)}"
        )
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("mean of an empty sample")
    return math.fsum(values) / len(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
