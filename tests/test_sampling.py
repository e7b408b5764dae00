"""Mask-guided area sampling: draw counts, eligibility, determinism."""

import math

import numpy as np
import pytest

from rgbxalign.imgcore import ConfidenceMap, Image, Mask, SparseMap
from rgbxalign.sampling import area_sample


def make_state(rng, shape=(40, 50), known_frac=0.2):
    counts = (rng.random(shape) < known_frac).astype(int)
    values = rng.random(shape) * counts
    sparse = SparseMap(values, counts)
    conf = ConfidenceMap(np.where(sparse.known, 0.9, 0.0))
    warped = Image(rng.random(shape))
    validity = Mask.full(*shape)
    return sparse, conf, warped, validity


def test_exact_draw_count(rng):
    sparse, conf, warped, validity = make_state(rng)
    area = Mask.full(*sparse.shape)
    eligible = int((~sparse.known).sum())
    out_sp, out_cf = area_sample(sparse, conf, warped, validity, area, seed=0)
    drawn = out_sp.num_known - sparse.num_known
    assert drawn == math.ceil(0.05 * eligible)
    new = out_sp.known & ~sparse.known
    assert np.all(out_cf.conf[new] == 0.3)
    assert np.array_equal(out_sp.values[new], warped.data[new])


def test_thousand_eligible_fifty_drawn(rng):
    values = np.zeros((40, 25))
    counts = np.zeros((40, 25), dtype=int)
    sparse = SparseMap(values, counts)  # all 1000 pixels void
    conf = ConfidenceMap(np.zeros((40, 25)))
    warped = Image(rng.random((40, 25)))
    out_sp, out_cf = area_sample(
        sparse, conf, warped, Mask.full(40, 25), Mask.full(40, 25), seed=0
    )
    assert out_sp.num_known == 50
    assert np.all(out_cf.conf[out_sp.known] == 0.3)


def test_existing_pixels_untouched(rng):
    sparse, conf, warped, validity = make_state(rng)
    out_sp, out_cf = area_sample(
        sparse, conf, warped, validity, Mask.full(*sparse.shape), seed=0
    )
    old = sparse.known
    assert np.array_equal(out_sp.values[old], sparse.values[old])
    assert out_sp.known[old].all()
    assert np.array_equal(out_cf.conf[old], conf.conf[old])


def test_empty_mask_is_noop(rng):
    sparse, conf, warped, validity = make_state(rng)
    empty = Mask(np.zeros(sparse.shape, dtype=bool))
    out_sp, out_cf = area_sample(sparse, conf, warped, validity, empty, seed=0)
    assert out_sp is sparse and out_cf is conf


def test_invalid_warp_excluded(rng):
    sparse, conf, warped, _ = make_state(rng, known_frac=0.0)
    validity = Mask(np.zeros(sparse.shape, dtype=bool))
    out_sp, _ = area_sample(sparse, conf, warped, validity, Mask.full(*sparse.shape), seed=0)
    assert out_sp.num_known == 0


def test_deterministic(rng):
    sparse, conf, warped, validity = make_state(rng)
    area = Mask.full(*sparse.shape)
    a1, c1 = area_sample(sparse, conf, warped, validity, area, seed=5)
    a2, c2 = area_sample(sparse, conf, warped, validity, area, seed=5)
    assert np.array_equal(a1.known, a2.known)
    a3, _ = area_sample(sparse, conf, warped, validity, area, seed=6)
    assert not np.array_equal(a1.known, a3.known)


def test_disjoint_masks_compose(rng):
    sparse, conf, warped, validity = make_state(rng, known_frac=0.0)
    height, width = sparse.shape
    left = np.zeros((height, width), dtype=bool)
    left[:, : width // 2] = True
    right = ~left
    sp_l, cf_l = area_sample(sparse, conf, warped, validity, Mask(left), seed=0)
    sp_lr, _ = area_sample(sp_l, cf_l, warped, validity, Mask(right), seed=0)
    n_left = math.ceil(0.05 * left.sum())
    n_right = math.ceil(0.05 * right.sum())
    assert sp_lr.num_known == n_left + n_right


def test_dimension_mismatch(rng):
    sparse, conf, warped, validity = make_state(rng)
    with pytest.raises(ValueError):
        area_sample(sparse, conf, warped, validity, Mask.full(3, 3), seed=0)

