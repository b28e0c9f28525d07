"""Summary statistics for experiment reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of a sample set."""

    count: int
    mean: float
    stddev: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float

    def as_dict(self) -> dict:
        """Plain-dict form (used when printing experiment results)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
            "max": self.maximum,
        }


def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile over an already-sorted sequence.

    ``fraction`` is in ``[0, 1]``.  An empty sequence raises
    :class:`ValueError`.  This is the one interpolating percentile of the
    code base; :meth:`repro.analysis.cdf.Cdf.percentile` is nearest-rank
    on purpose.
    """
    if not sorted_samples:
        raise ValueError("cannot summarise an empty sample set")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    position = fraction * (len(sorted_samples) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper or sorted_samples[lower] == sorted_samples[upper]:
        # The equal-neighbours case must short-circuit: interpolating
        # between two identical subnormal floats can underflow to a value
        # below both, breaking the min <= p25 <= ... ordering invariant.
        return sorted_samples[lower]
    weight = position - lower
    return sorted_samples[lower] * (1 - weight) + sorted_samples[upper] * weight


def summarize(samples: Iterable[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over the samples."""
    values = sorted(float(sample) for sample in samples)
    if not values:
        raise ValueError("cannot summarise an empty sample set")
    count = len(values)
    mean = sum(values) / count
    variance = sum((value - mean) ** 2 for value in values) / count if count > 1 else 0.0
    return SummaryStats(
        count=count,
        mean=mean,
        stddev=math.sqrt(variance),
        minimum=values[0],
        p25=percentile(values, 0.25),
        median=percentile(values, 0.50),
        p75=percentile(values, 0.75),
        p95=percentile(values, 0.95),
        maximum=values[-1],
    )
