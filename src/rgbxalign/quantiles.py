"""Library-wide quantile convention.

One implementation shared by the patch-rejection threshold and the metric
percentiles: sort ascending, index h = p * (n - 1), linear interpolation
between the neighboring order statistics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def quantile(values: np.ndarray | Sequence[float], p: float) -> float:
    """Linear-interpolation quantile of a 1-D collection, p in [0, 1]."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("quantile of an empty collection")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile level {p} outside [0, 1]")
    ordered = np.sort(arr)
    h = p * (arr.size - 1)
    lo = math.floor(h)
    hi = min(lo + 1, arr.size - 1)
    frac = h - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)

