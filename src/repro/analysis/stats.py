"""Small statistics helpers for experiment reporting.

Kept dependency-free (standard-library :mod:`statistics`) so the core
package has no runtime requirements.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["Summary", "summarize", "percentile"]


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of one sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p95: float
    maximum: float

    def describe(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.minimum:.3f} median={self.median:.3f} "
            f"p95={self.p95:.3f} max={self.maximum:.3f}"
        )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ConfigurationError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("fraction must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    interpolated = ordered[lower] * (1.0 - weight) + ordered[upper] * weight
    # Guard against floating-point drift pushing the result outside the sample.
    return float(min(max(interpolated, ordered[lower]), ordered[upper]))


def summarize(values: Sequence[float]) -> Summary:
    """Descriptive statistics of a non-empty sample."""
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    data = [float(v) for v in values]
    minimum = min(data)
    maximum = max(data)
    # math.fsum keeps the sum exact; the final division still rounds once,
    # so clamp against the sample range (e.g. the mean of identical values
    # must not exceed their maximum).
    mean = math.fsum(data) / len(data)
    mean = min(max(mean, minimum), maximum)
    return Summary(
        count=len(data),
        mean=mean,
        std=statistics.pstdev(data) if len(data) > 1 else 0.0,
        minimum=minimum,
        median=statistics.median(data),
        p95=percentile(data, 0.95),
        maximum=maximum,
    )
