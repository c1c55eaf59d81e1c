"""Latency statistics: the median and the highest percentile that still
has at least ten samples beyond it, each with its sample count."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 90.0)
#: samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples
    (the epsilon absorbs float error, e.g. 99.9 / 100 * 10000)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` of ``n`` samples."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile in :data:`TAILS` with ``MIN_BEYOND``
    samples beyond it, or ``None`` when ``n`` is too small."""
    for p in TAILS:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50"}`` plus ``"tail_p"`` / ``"tail"`` when a tail
    percentile has enough samples; ``{"n": 0}`` for no samples."""
    n = len(samples)
    if n == 0:
        return {"n": 0}
    out = {"n": n, "p50": statistics.median(samples)}
    p = tail_percentile(n)
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(samples, p)
    return out


def value_at(samples: Sequence[float], p: float) -> Optional[float]:
    """Percentile ``p`` of ``samples`` if at least ``MIN_BEYOND``
    samples lie beyond it, else ``None``."""
    if beyond(len(samples), p) < MIN_BEYOND:
        return None
    return percentile(samples, p)
