"""Shared quantile convention vs a sort-based brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbxalign.quantiles import quantile


def brute_force_quantile(values, p):
    """Independent re-derivation: sort, h = p*(n-1), linear interpolation."""
    ordered = sorted(float(v) for v in values)
    h = p * (len(ordered) - 1)
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


def test_median_of_1_to_100():
    assert quantile(np.arange(1, 101, dtype=float), 0.5) == 50.5


def test_constant():
    assert quantile([3.3] * 9, 0.99) == 3.3


def test_endpoints():
    vals = [5.0, 1.0, 9.0]
    assert quantile(vals, 0.0) == 1.0
    assert quantile(vals, 1.0) == 9.0


def test_single_element():
    assert quantile([7.0], 0.37) == 7.0


def test_errors():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_matches_brute_force(values, p):
    assert quantile(values, p) == brute_force_quantile(values, p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_monotone_in_p(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=50)
    qs = [quantile(vals, p) for p in np.linspace(0, 1, 21)]
    assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))
