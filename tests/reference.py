"""Separately coded references that the unit and acceptance tests both check against.

Kept out of the test modules so that importing one of them never depends
on another test module collecting.
"""

import numpy as np

from rgbxalign.densify import OFFSETS, RADII, SIGMA_COLOR, SIGMA_SPATIAL
from rgbxalign.imgcore import Image, gray_array
from rgbxalign.matching import MatchSet


def reference_recurrence(l0, weights, xm, anchor, iters):
    """Separately coded scalar loop of the anchored-neighborhood recurrence,
    on (K, H, W) weights paired with OFFSETS."""
    cur = l0.copy()
    height, width = cur.shape
    for _ in range(iters):
        nxt = np.zeros_like(cur)
        for r in range(height):
            for c in range(width):
                acc = 0.0
                for k, (dr, dc) in enumerate(OFFSETS):
                    rr, cc = r + dr, c + dc
                    neighbor = cur[rr, cc] if 0 <= rr < height and 0 <= cc < width else 0.0
                    acc = acc + weights[k, r, c] * neighbor
                nxt[r, c] = (1.0 - anchor[r, c]) * acc + anchor[r, c] * xm[r, c]
        cur = nxt
    return cur


def reference_guidance_weights(rgb):
    """The guidance weights computed over whole rasters: each offset's weight
    at every pixel against a zero-padded shift of the guide, then masked by
    the shifted in-bounds raster and normalized."""
    g = gray_array(rgb)
    height, width = g.shape

    def shifted(arr, dr, dc):
        out = np.zeros_like(arr)
        for r in range(height):
            for c in range(width):
                if 0 <= r + dr < height and 0 <= c + dc < width:
                    out[r, c] = arr[r + dr, c + dc]
        return out

    weights = np.zeros((len(OFFSETS), height, width))
    inv_color = 1.0 / (2.0 * SIGMA_COLOR**2)
    for k, (dr, dc) in enumerate(OFFSETS):
        r = RADII[k // 8]
        spatial = np.exp(-(r * r) / (2.0 * SIGMA_SPATIAL**2))
        w = np.exp(-((g - shifted(g, dr, dc)) ** 2) * inv_color) * spatial
        weights[k] = w * shifted(np.ones_like(g), dr, dc)
    return weights / weights.sum(axis=0)


def brute_force_filter(diag):
    """Sort-based re-derivation of q, the threshold, and the rejection set."""
    d = sorted(diag)
    n = len(d)

    def q_at(p):
        h = p * (n - 1)
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        return d[lo] + (d[hi] - d[lo]) * (h - lo)

    q99 = q_at(0.99)
    if q99 <= 0:
        return 1.0, -np.inf, [False] * n
    q = min(max(q_at(0.5) / q99, 0.0), 1.0)
    theta = q_at(1.0 - q)
    return q, theta, [v < theta for v in diag]


def project(h, pts):
    hom = np.column_stack([pts, np.ones(len(pts))])
    q = hom @ h.T
    return q[:, :2] / q[:, 2:3]


def brute_force_accumulate(sets, x_frames, shape):
    """Scalar re-evaluation of the accumulation rule, same rounding/sampling."""
    vsum = np.zeros(shape)
    csum = np.zeros(shape)
    count = np.zeros(shape, dtype=np.int64)
    for ms, x_img in zip(sets, x_frames):
        data = x_img.data
        for k in range(len(ms)):
            r, c = ms.p_x[k]
            r0 = int(np.clip(np.floor(r), 0, data.shape[0] - 2))
            c0 = int(np.clip(np.floor(c), 0, data.shape[1] - 2))
            fr = min(max(r - r0, 0.0), 1.0)
            fc = min(max(c - c0, 0.0), 1.0)
            top = (1.0 - fc) * data[r0, c0] + fc * data[r0, c0 + 1]
            bot = (1.0 - fc) * data[r0 + 1, c0] + fc * data[r0 + 1, c0 + 1]
            val = (1.0 - fr) * top + fr * bot
            pi = int(np.floor(ms.p_rgb[k, 0] + 0.5))
            pj = int(np.floor(ms.p_rgb[k, 1] + 0.5))
            vsum[pi, pj] = vsum[pi, pj] + val
            csum[pi, pj] = csum[pi, pj] + ms.conf[k]
            count[pi, pj] += 1
    known = count > 0
    values = np.zeros(shape)
    conf = np.zeros(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            if known[i, j]:
                values[i, j] = vsum[i, j] / count[i, j]
                conf[i, j] = csum[i, j] / count[i, j]
    return values, count, np.clip(conf, 0.0, 1.0)


def random_matchsets(rng, n_sets, n_matches, shape):
    sets, frames = [], []
    height, width = shape
    for s in range(n_sets):
        p_rgb = np.column_stack(
            [rng.uniform(0, height - 1, n_matches), rng.uniform(0, width - 1, n_matches)]
        )
        p_x = np.column_stack(
            [rng.uniform(0, height - 1, n_matches), rng.uniform(0, width - 1, n_matches)]
        )
        sets.append(MatchSet("t", str(s), p_rgb, p_x, rng.random(n_matches)))
        frames.append(Image(rng.random(shape)))
    return sets, frames
