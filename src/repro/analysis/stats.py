"""Bootstrap statistics for experiment series.

Competitive-ratio profiles are sample maxima/means over seeded families;
these helpers attach bootstrap confidence intervals so EXPERIMENTS.md rows
can be reported with uncertainty, per standard empirical-algorithmics
practice.
"""

from __future__ import annotations

import random
from math import floor
from statistics import fmean
from typing import Callable, Iterable, Sequence, Tuple


def _quantile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of sorted data, interpolated linearly between the
    closest ranks (numpy's default method)."""
    h = (len(ordered) - 1) * q
    i = floor(h)
    upper = ordered[min(i + 1, len(ordered) - 1)]
    return ordered[i] + (h - i) * (upper - ordered[i])


def bootstrap_ci(
    values: Iterable[float],
    statistic: Callable[[Sequence[float]], float] = fmean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """``(point, lo, hi)`` percentile-bootstrap CI of ``statistic``."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("no samples")
    point = float(statistic(data))
    if len(data) == 1:
        return point, point, point
    rng = random.Random(seed)
    stats = sorted(
        statistic(rng.choices(data, k=len(data))) for _ in range(n_resamples)
    )
    alpha = (1 - confidence) / 2
    return point, _quantile(stats, alpha), _quantile(stats, 1 - alpha)


def mean_ci(values: Iterable[float], **kwargs) -> Tuple[float, float, float]:
    return bootstrap_ci(values, fmean, **kwargs)


def max_ci(values: Iterable[float], **kwargs) -> Tuple[float, float, float]:
    return bootstrap_ci(values, max, **kwargs)
