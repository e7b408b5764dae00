"""Mask-guided uniform seeding of homography-warped X values into void areas.

Matchers find nothing in texture-less regions (sky, walls, grass), so those
stay void after accumulation. Given an area mask for such regions, a small
fixed fraction of the still-void pixels is seeded with values from the
homography-warped X image at a fixed low confidence, giving densification
anchors that the later filtering stage can still reject.
"""

from __future__ import annotations

import math

import numpy as np

from .imgcore import ConfidenceMap, Image, Mask, SparseMap

RATE = 0.05  # share of the eligible pixels seeded
FIXED_CONF = 0.3  # confidence of a seeded pixel


def area_sample(
    sparse: SparseMap,
    conf: ConfidenceMap,
    warped_x: Image,
    validity: Mask,
    area_mask: Mask,
    seed: int,
) -> tuple[SparseMap, ConfidenceMap]:
    """Seed ceil(RATE * |E|) pixels of E = mask & void & warp-valid.

    Drawn uniformly without replacement from `seed`; each drawn pixel
    becomes known with the warped X value and confidence FIXED_CONF.
    Existing non-void pixels are never touched. An empty eligible set
    returns the inputs unchanged.
    """
    shape = sparse.shape
    for other in (conf.shape, warped_x.shape, validity.shape, area_mask.shape):
        if other != shape:
            raise ValueError(f"dimension mismatch: {other} vs {shape}")
    if warped_x.channels != 1:
        raise ValueError("warped X image must be single-channel")

    eligible = area_mask.bits & ~sparse.known & validity.bits
    flat = np.flatnonzero(eligible)
    if flat.size == 0:
        return sparse, conf
    n_draw = math.ceil(RATE * flat.size)
    rng = np.random.default_rng(np.random.SeedSequence((0xA3EA, seed)))
    chosen = flat[rng.choice(flat.size, size=n_draw, replace=False)]
    rows, cols = np.unravel_index(chosen, shape)

    values = np.array(sparse.values)
    known = np.array(sparse.known)
    confidence = np.array(conf.conf)
    values[rows, cols] = warped_x.data[rows, cols]
    known[rows, cols] = True
    confidence[rows, cols] = FIXED_CONF
    return SparseMap(values, known, sparse.units), ConfidenceMap(confidence)
