"""Cross-modal correspondences, multi-frame accumulation, and planar warping.

Matchers are backends with a `match_pair(rgb, x, rgb_frame, x_frame)` method
returning a `MatchSet`. The built-in classical backend matches
gradient-orientation patches with zero-normalized cross-correlation, which
survives the contrast inversions typical between RGB and other modalities.
Accumulation stacks matched X values from a window of frames onto the target
RGB view's integer pixel grid, averaging contributions per pixel.

Homographies act on homogeneous (row, col, 1) column vectors; the matrix
returned by `estimate_homography` maps RGB-frame coordinates to X-frame
coordinates, which is exactly what `warp_image` consumes for inverse warping.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EstimationFailedError, MatchingError
from .imgcore import (
    ConfidenceMap, Image, Mask, SparseMap, _freeze, _pixel_grid, bilinear_sample, gray_array,
)

logger = logging.getLogger(__name__)


def round_to_pixel(coords: np.ndarray) -> np.ndarray:
    """Nearest-integer pixel rule used everywhere matches meet the grid."""
    return np.floor(np.asarray(coords, dtype=np.float64) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class MatchSet:
    """Correspondences between one RGB frame and one X frame.

    Stored as parallel arrays, none by default. Construction deduplicates
    matches that round to the same RGB pixel, keeping the highest-confidence one.
    """

    rgb_frame: str
    x_frame: str
    p_rgb: np.ndarray = ()  # (N, 2) float64, (row, col)
    p_x: np.ndarray = ()  # (N, 2) float64, (row, col)
    conf: np.ndarray = ()  # (N,) float64 in [0, 1]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        p_rgb = np.atleast_2d(np.asarray(self.p_rgb, dtype=np.float64)).reshape(-1, 2)
        p_x = np.atleast_2d(np.asarray(self.p_x, dtype=np.float64)).reshape(-1, 2)
        conf = np.asarray(self.conf, dtype=np.float64).ravel()
        if not (len(p_rgb) == len(p_x) == len(conf)):
            raise MatchingError("match arrays must have equal length")
        if len(conf) and (not np.all(np.isfinite(p_rgb)) or not np.all(np.isfinite(p_x))):
            raise MatchingError("non-finite match coordinates")
        if len(conf) and (p_rgb.min() < 0.0 or p_x.min() < 0.0):
            raise MatchingError("negative match coordinates")
        # NaN fails both comparisons, so it is rejected too
        if len(conf) and not np.all((conf >= 0.0) & (conf <= 1.0)):
            raise MatchingError("match confidence outside [0, 1]")
        keep = _dedup_indices(p_rgb, conf)
        for name, arr in (("p_rgb", p_rgb[keep]), ("p_x", p_x[keep]), ("conf", conf[keep])):
            object.__setattr__(self, name, _freeze(arr))

    def __len__(self) -> int:
        return len(self.conf)


def _dedup_indices(p_rgb: np.ndarray, conf: np.ndarray) -> np.ndarray:
    if len(conf) == 0:
        return np.empty(0, dtype=np.int64)
    pix = round_to_pixel(p_rgb)
    keys = (pix[:, 0] << 32) | pix[:, 1]
    # highest confidence first, original order as the tiebreaker
    order = np.lexsort((np.arange(len(conf)), -conf))
    _, first = np.unique(keys[order], return_index=True)
    keep = order[first]
    keep.sort()
    return keep


@dataclass(frozen=True)
class Homography:
    """3x3 projective transform on (row, col, 1) vectors, h[2,2] = 1."""

    h: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=np.float64)
        if h.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        if not _valid_homographies(h):
            raise ValueError("homography is singular or has h[2,2] too close to zero")
        object.__setattr__(self, "h", _freeze(h / h[2, 2]))

    @staticmethod
    def identity() -> "Homography":
        return Homography(np.eye(3))

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.h))

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Map (N, 2) (row, col) points through the transform."""
        return _apply_homography(self.h, pts)


def _valid_homographies(h: np.ndarray) -> np.ndarray:
    """Which of the (..., 3, 3) matrices `Homography` accepts: |h[2,2]| >= 1e-12
    and, scaled to h[2,2] = 1, |det| > 1e-12."""
    h22 = h[..., 2, 2]
    ok = np.abs(h22) >= 1e-12
    scaled = h / np.where(ok, h22, 1.0)[..., None, None]
    return ok & (np.abs(np.linalg.det(scaled)) > 1e-12)


def _apply_homography(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Map (N, 2) (row, col) points through a raw 3x3 matrix, unnormalized."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    hom = np.column_stack([pts, np.ones(len(pts))])
    q = hom @ h.T
    return q[:, :2] / q[:, 2:3]


# ---------------------------------------------------------------------------
# Classical backend: gradient-energy keypoints + orientation-weighted ZNCC
# ---------------------------------------------------------------------------


def _orientation_channels(gray: np.ndarray) -> np.ndarray:
    """Stack (mag*cos 2t, mag*sin 2t); doubling the angle makes the encoding
    invariant to contrast inversion, the dominant cross-modal effect."""
    gy, gx = np.gradient(gray)
    mag = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx)
    return np.stack([mag * np.cos(2.0 * theta), mag * np.sin(2.0 * theta)], axis=-1)


def _box_sums(arr: np.ndarray, win: int) -> np.ndarray:
    """Sum over every win x win window (valid positions) of a 2-D array.

    Each sum adds the window's own values, row slabs first, so a nearly
    constant window keeps its variance; differencing running sums over the
    whole raster would lose it to cancellation.
    """
    height, width = arr.shape
    rows = sum(arr[i : height - win + 1 + i] for i in range(win))
    return sum(rows[:, j : width - win + 1 + j] for j in range(win))


class ClassicalBackend:
    """Deterministic cross-modal matcher.

    Detects local gradient-energy maxima above MIN_ENERGY, one per STRIDE
    cell of the RGB frame, and searches the X frame within SEARCH_RADIUS px
    for the best ZNCC score of PATCH x PATCH gradient-orientation-weighted
    patches.

    The cross term of every search position comes from BLAS matrix products
    over a table of the X frame's column windows (see `_search`); the
    window sums and sums of squares of the X frame are computed once per
    pair by direct summation. The table is built for one band of STRIDE
    keypoint rows at a time: at most STRIDE + 2 * SEARCH_RADIUS + PATCH - 1
    = 87 X rows, each holding width - PATCH + 1 windows of 2 * PATCH values,
    so it takes 87 * 32 * 8 B = 22 KiB per column of the X frame (22 MiB at
    1024 columns) whatever the frame's height.
    """

    STRIDE = 8
    SEARCH_RADIUS = 32
    PATCH = 16
    MIN_ENERGY = 1e-3

    def match_pair(
        self, rgb: Image, x: Image, rgb_frame: str = "0", x_frame: str = "0"
    ) -> MatchSet:
        """Produce correspondences between an RGB frame and an X frame."""
        half = self.PATCH // 2
        if min(rgb.height, rgb.width, x.height, x.width) < self.PATCH + 2:
            return MatchSet(rgb_frame, x_frame, warnings=("image smaller than descriptor window",))
        g_rgb = _orientation_channels(gray_array(rgb))
        g_x = _orientation_channels(gray_array(x))
        energy = np.hypot(g_rgb[:, :, 0], g_rgb[:, :, 1])
        # centered norm of every PATCH x PATCH window of X, indexed by the
        # window's top-left pixel: sqrt(S2 - S1^2/K) over its K values
        s1 = _box_sums(g_x.sum(axis=2), self.PATCH)
        s2 = _box_sums((g_x * g_x).sum(axis=2), self.PATCH)
        spread = np.sqrt(np.maximum(s2 - s1 * s1 / (2 * self.PATCH * self.PATCH), 0.0))

        keypoints = self._detect(energy, half)
        p_rgb, p_x, conf = [], [], []
        band, table, y0 = None, None, 0
        for r, c in keypoints:
            if (r - half) // self.STRIDE != band:
                band = (r - half) // self.STRIDE
                table, y0 = self._column_windows(g_x, half + band * self.STRIDE, half)
            hit = self._search(g_rgb, g_x.shape[:2], table, y0, spread, r, c, half)
            if hit is None:
                continue
            (rx, cx), score = hit
            p_rgb.append((float(r), float(c)))
            p_x.append((float(rx), float(cx)))
            conf.append(score)
        return MatchSet(rgb_frame, x_frame, np.array(p_rgb), np.array(p_x), np.array(conf))

    def _detect(self, energy: np.ndarray, half: int) -> list[tuple[int, int]]:
        height, width = energy.shape
        pts = []
        for r0 in range(half, height - half, self.STRIDE):
            for c0 in range(half, width - half, self.STRIDE):
                cell = energy[r0 : min(r0 + self.STRIDE, height - half),
                              c0 : min(c0 + self.STRIDE, width - half)]
                if cell.size == 0:
                    continue
                idx = int(np.argmax(cell))
                dr, dc = divmod(idx, cell.shape[1])
                if cell[dr, dc] > self.MIN_ENERGY:
                    pts.append((r0 + dr, c0 + dc))
        return pts

    def _column_windows(self, g_x: np.ndarray, r0: int, half: int) -> tuple[np.ndarray, int]:
        """Column-window table of the X rows that the keypoints of rows
        r0 .. r0 + STRIDE - 1 can reach, and the first of those rows.

        Entry [y, x] holds the (channel, column) window g_x[y0 + y, x : x + PATCH],
        2 * PATCH contiguous values.
        """
        reach = self.SEARCH_RADIUS + half
        y0 = max(0, r0 - reach)
        rows = g_x[y0 : r0 + self.STRIDE - 1 + reach]
        windows = np.lib.stride_tricks.sliding_window_view(rows, self.PATCH, axis=1)
        # explicit sizes: a band below the X frame's last row has no rows
        shape = (len(rows), g_x.shape[1] - self.PATCH + 1, 2 * self.PATCH)
        return np.ascontiguousarray(windows).reshape(shape), y0

    def _search(
        self,
        g_rgb: np.ndarray,
        x_shape: tuple[int, int],
        table: np.ndarray,
        y0: int,
        spread: np.ndarray,
        r: int,
        c: int,
        half: int,
    ) -> tuple[tuple[int, int], float] | None:
        desc = g_rgb[r - half : r + half, c - half : c + half]
        d = desc - desc.mean()
        d_norm = np.linalg.norm(d)
        if d_norm <= 1e-12:
            return None
        height, width = x_shape
        rad = self.SEARCH_RADIUS
        r_lo = max(half, r - rad)
        r_hi = min(height - half, r + rad + 1)
        c_lo = max(half, c - rad)
        c_hi = min(width - half, c + rad + 1)
        if r_lo >= r_hi or c_lo >= c_hi:
            return None
        # prod[y, b, i] = descriptor row i against the column window of X row
        # y at search column b, one matrix product; the cross term of the
        # window whose top row is a sums prod[a + i, b, i] over i
        block = table[r_lo - half - y0 : r_hi + half - 1 - y0, c_lo - half : c_hi - half]
        prod = block @ d.transpose(2, 1, 0).reshape(2 * self.PATCH, self.PATCH)
        cross = sum(prod[i : i + r_hi - r_lo, :, i] for i in range(self.PATCH))
        # the descriptor is centered, so the cross term is the centered dot
        # product
        denom = spread[r_lo - half : r_hi - half, c_lo - half : c_hi - half] * d_norm
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(denom > 1e-12, cross / denom, -np.inf)
        best = int(np.argmax(scores))
        if not np.isfinite(scores.ravel()[best]) or scores.ravel()[best] <= 0.0:
            return None
        br, bc = divmod(best, scores.shape[1])
        return (r_lo + br, c_lo + bc), float(min(scores.ravel()[best], 1.0))


# ---------------------------------------------------------------------------
# Multi-frame accumulation onto the target RGB view
# ---------------------------------------------------------------------------


def accumulate_matches(
    sets: list[MatchSet],
    x_frames: list[Image],
    out_shape: tuple[int, int],
) -> tuple[SparseMap, ConfidenceMap]:
    """Stack matched X values from a window of frames onto the RGB pixel grid.

    Every set must target the same RGB frame. Each match contributes the
    bilinearly sampled X value at its X-frame coordinate to the nearest
    integer pixel of its RGB-frame coordinate. Pixels average their
    contributions (values and confidences alike, confidence clipped to
    [0, 1] after the mean); pixels with no contributor are void. The map
    takes the X frames' units, which must agree.
    """
    if len(sets) != len(x_frames):
        raise MatchingError("one X frame required per match set")
    targets = sorted({ms.rgb_frame for ms in sets})
    if len(targets) > 1:
        raise MatchingError(f"match sets target more than one RGB frame: {targets}")
    units = {x_img.units for x_img in x_frames}
    if len(units) > 1:
        named = ", ".join(f"{ms.x_frame} {x_img.units}" for ms, x_img in zip(sets, x_frames))
        raise MatchingError(f"X frames disagree on units ({named})")
    height, width = out_shape
    vsum = np.zeros(out_shape)
    csum = np.zeros(out_shape)
    count = np.zeros(out_shape, dtype=np.int64)
    for ms, x_img in zip(sets, x_frames):
        if x_img.channels != 1:
            raise MatchingError("X frames must be single-channel")
        if len(ms) == 0:
            continue
        values, valid = bilinear_sample(x_img.data, ms.p_x[:, 0], ms.p_x[:, 1])
        if not np.all(valid):
            raise MatchingError("match coordinates outside the X frame")
        pix = round_to_pixel(ms.p_rgb)
        if pix.min() < 0 or pix[:, 0].max() >= height or pix[:, 1].max() >= width:
            raise MatchingError("match coordinates outside the target frame")
        np.add.at(vsum, (pix[:, 0], pix[:, 1]), values)
        np.add.at(csum, (pix[:, 0], pix[:, 1]), ms.conf)
        np.add.at(count, (pix[:, 0], pix[:, 1]), 1)
    known = count > 0
    values = np.zeros(out_shape)
    conf = np.zeros(out_shape)
    np.divide(vsum, count, out=values, where=known)
    np.divide(csum, count, out=conf, where=known)
    conf = np.clip(conf, 0.0, 1.0)
    return SparseMap(values, known, *units), ConfidenceMap(conf)


# ---------------------------------------------------------------------------
# Robust homography estimation (confidence-weighted RANSAC + normalized DLT)
# ---------------------------------------------------------------------------


def _normalizing_transform(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    dist = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if dist < 1e-12:
        raise EstimationFailedError("all points coincide")
    s = np.sqrt(2.0) / dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def _design_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """DLT system of matches given as (..., n, 2) arrays: (..., 2n, 9), two
    interleaved rows per match."""
    u, v = src[..., 0], src[..., 1]
    x, y = dst[..., 0], dst[..., 1]
    ones = np.ones_like(u)
    zeros = np.zeros_like(u)
    rows_x = np.stack([u, v, ones, zeros, zeros, zeros, -x * u, -x * v, -x], axis=-1)
    rows_y = np.stack([zeros, zeros, zeros, u, v, ones, -y * u, -y * v, -y], axis=-1)
    return np.stack([rows_x, rows_y], axis=-2).reshape(*u.shape[:-1], 2 * u.shape[-1], 9)


def _dlt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DLT of B systems of n matches each, given as (B, n, 2) arrays.

    Returns the (B, 3, 3) models scaled to h[2,2] = 1 and the mask of the
    usable ones: h[2,2] allows that scaling and, above the minimal n = 4, the
    system is not rank-deficient. The other models are left unscaled.
    """
    n = src.shape[1]
    # a minimal 4-point system is 8x9 and needs the full V; a refit over many
    # matches needs only V, never the 2n x 2n U
    _, s, vt = np.linalg.svd(_design_matrix(src, dst), full_matrices=2 * n < 9)
    h = vt[:, -1].reshape(-1, 3, 3)
    ok = np.abs(h[:, 2, 2]) >= 1e-12
    if n > 4:
        ok &= s[:, -2] >= 1e-12
    h[ok] /= h[ok, 2:3, 2:3]
    return h, ok


# RANSAC stops once a sample free of outliers has been drawn with this
# probability
_RANSAC_CONFIDENCE = 0.99
# minimal samples drawn, screened and solved together; the stopping bound is
# about 35 to 300 samples on typical match sets
_SAMPLE_CHUNK = 32

# the four point triples of a 4-point sample
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _collinear_samples(pts: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Which of the (B, 4, 2) samples hold three points on a line (cross
    product of two edge vectors below eps)."""
    a, b, c = (pts[:, _TRIPLES[:, k]] for k in range(3))
    v1 = b - a
    v2 = c - a
    cross = v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    return (np.abs(cross) < eps).any(axis=1)


def _draw_samples(weights: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` samples of 4 match indices, (count, 4).

    Each index is drawn with probability proportional to its weight among
    the matches not yet in its sample: a uniform position over the weight
    left is carried past the intervals of the indices already taken, then
    located on the cumulative weights. Zero-weight matches have empty
    intervals and are never drawn. Scratch memory is O(count + n).

    Rounding can carry a position onto the top edge; it then takes the
    last match of non-zero weight, which may repeat an index of its sample,
    and a repeated point makes the sample collinear.
    """
    edges = np.concatenate([[0.0], np.cumsum(weights)])
    last = np.flatnonzero(weights)[-1]
    idx = np.empty((count, 4), dtype=np.int64)
    taken_weight = np.zeros(count)
    for k in range(4):
        pos = rng.random(count) * (edges[-1] - taken_weight)
        # edges[t + 1] is edges[t] + weights[t] rounded, so a position at or
        # past edges[t] moves to at or past edges[t + 1]
        for t in np.sort(idx[:, :k], axis=1).T:
            pos += np.where(pos >= edges[t], weights[t], 0.0)
        idx[:, k] = np.minimum(np.searchsorted(edges, pos, side="right") - 1, last)
        taken_weight += weights[idx[:, k]]
    return idx


def _symmetric_transfer_error(
    h: np.ndarray, src: tuple[np.ndarray, np.ndarray], dst: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Symmetric transfer error of h over matches given as coordinate columns.

    Each coordinate is the same sum of products as the homogeneous matrix
    product, on contiguous columns instead of (n, 3) homogeneous arrays.
    """

    def project(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q2 = u * t[2, 0] + v * t[2, 1] + t[2, 2]
        return (u * t[0, 0] + v * t[0, 1] + t[0, 2]) / q2, (u * t[1, 0] + v * t[1, 1] + t[1, 2]) / q2

    fwd_r, fwd_c = project(h, *src)
    bwd_r, bwd_c = project(np.linalg.inv(h), *dst)
    dr, dc = fwd_r - dst[0], fwd_c - dst[1]
    er, ec = bwd_r - src[0], bwd_c - src[1]
    return np.sqrt((dr * dr + dc * dc) + (er * er + ec * ec))


def _samples_needed(inlier_fraction: float) -> int:
    """Fischler & Bolles' bound: the number of 4-point samples after which
    one free of outliers has been drawn with probability _RANSAC_CONFIDENCE,
    when a share `inlier_fraction` of the matches are inliers."""
    p_clean = inlier_fraction**4
    if p_clean >= 1.0:
        return 1
    return math.ceil(math.log(1.0 - _RANSAC_CONFIDENCE) / math.log1p(-p_clean))


def estimate_homography(
    ms: MatchSet,
    reproj_thresh: float = 2.0,
    max_iters: int = 500,
    seed: int = 0,
) -> tuple[Homography, np.ndarray]:
    """RANSAC homography from RGB coordinates to X coordinates.

    Minimal 4-point samples are drawn without replacement with probability
    proportional to match confidence (uniformly when every confidence is 0;
    zero-confidence matches are otherwise never drawn), _SAMPLE_CHUNK at a
    time. Each chunk is screened for collinear triples and solved with
    Hartley-normalized DLT in one batch. The models are then scored one at
    a time, in draw order, by MSAC over the symmetric transfer error, and
    the winner is refit on all of its inliers. Deterministic for a fixed
    seed.

    `max_iters` is an upper bound on the samples drawn. Sampling stops as
    soon as a sample free of outliers has been drawn with 99 % confidence
    (_RANSAC_CONFIDENCE), judged from the unweighted inlier fraction of the
    best model so far.

    Returns (homography, inlier mask). Raises EstimationFailedError when
    fewer than 4 matches, or fewer than 4 of non-zero confidence, exist or
    every sample is degenerate; callers fall back to the identity warp.
    """
    n = len(ms)
    if n < 4:
        raise EstimationFailedError(f"need at least 4 matches, got {n}")
    weights = ms.conf if ms.conf.any() else np.ones(n)
    drawable = np.count_nonzero(weights)
    if drawable < 4:
        raise EstimationFailedError(
            f"need at least 4 matches of non-zero confidence, got {drawable}"
        )
    src = ms.p_rgb
    dst = ms.p_x
    t_src = _normalizing_transform(src)
    t_dst = _normalizing_transform(dst)
    src_n = _apply_homography(t_src, src)
    dst_n = _apply_homography(t_dst, dst)
    t_dst_inv = np.linalg.inv(t_dst)
    rng = np.random.default_rng(seed)

    src_cols = (np.ascontiguousarray(src[:, 0]), np.ascontiguousarray(src[:, 1]))
    dst_cols = (np.ascontiguousarray(dst[:, 0]), np.ascontiguousarray(dst[:, 1]))
    thresh_sq = reproj_thresh * reproj_thresh
    best_score = np.inf
    best_mask: np.ndarray | None = None
    best_h: np.ndarray | None = None
    drawn, limit = 0, max_iters
    while drawn < limit:
        idx = _draw_samples(weights, rng, min(_SAMPLE_CHUNK, limit - drawn))
        src_s, dst_s = src_n[idx], dst_n[idx]
        h_n, usable = _dlt(src_s, dst_s)
        h = t_dst_inv @ h_n @ t_src
        usable &= ~(_collinear_samples(src_s) | _collinear_samples(dst_s))
        usable &= _valid_homographies(h)
        for k in range(len(idx)):
            if drawn == limit:
                break
            drawn += 1
            if not usable[k]:
                continue
            err = _symmetric_transfer_error(h[k], src_cols, dst_cols)
            score = np.minimum(err * err, thresh_sq).sum()
            mask = err < reproj_thresh
            inliers = int(mask.sum())
            if score < best_score and inliers >= 4:
                best_score = score
                best_mask = mask
                best_h = h[k]
                limit = min(max_iters, _samples_needed(inliers / n))

    if best_h is None:
        raise EstimationFailedError("no non-degenerate RANSAC sample produced a model")

    h_refit, refit_ok = _dlt(src_n[best_mask][None], dst_n[best_mask][None])
    if refit_ok[0]:
        candidate = t_dst_inv @ h_refit[0] @ t_src
        if _valid_homographies(candidate):
            err = _symmetric_transfer_error(candidate, src_cols, dst_cols)
            mask = err < reproj_thresh
            if mask.sum() >= 4:
                best_h, best_mask = candidate, mask
    return Homography(best_h), best_mask


def warp_image(
    x: Image, h: Homography, out_shape: tuple[int, int]
) -> tuple[Image, Mask]:
    """Inverse-warp an X image onto a target grid.

    `h` maps target coordinates to source coordinates. Out-of-bounds samples
    are zeroed and reported through the returned validity mask.
    """
    height, width = out_shape
    src = h.apply(_pixel_grid(height, width))
    values, valid = bilinear_sample(x.data, src[:, 0], src[:, 1])
    shape = (height, width) if x.channels == 1 else (height, width, x.channels)
    return Image(values.reshape(shape), units=x.units), Mask(valid.reshape(height, width))


# ---------------------------------------------------------------------------
# MatchSet text serialization (cache + external matcher injection)
# ---------------------------------------------------------------------------


def save_matchset(ms: MatchSet, path: str | Path) -> None:
    """Two-line header (frame ids, count), then one `r_I c_I r_X c_X conf` line per match."""
    lines = [f"{ms.rgb_frame} {ms.x_frame}", str(len(ms))]
    for i in range(len(ms)):
        fields = (ms.p_rgb[i, 0], ms.p_rgb[i, 1], ms.p_x[i, 0], ms.p_x[i, 1], ms.conf[i])
        lines.append(" ".join(repr(float(v)) for v in fields))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matchset(path: str | Path) -> MatchSet:
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise MatchingError(f"{path}: not a text file ({exc})") from exc
    except OSError as exc:
        raise MatchingError(f"{path}: cannot read ({exc})") from exc
    if len(lines) < 2:
        raise MatchingError(f"{path}: truncated match file")
    ids = lines[0].split()
    if len(ids) != 2:
        raise MatchingError(f"{path}: bad header line {lines[0]!r}")
    try:
        count = int(lines[1])
    except ValueError as exc:
        raise MatchingError(f"{path}:2: bad count line") from exc
    if count < 0:
        raise MatchingError(f"{path}:2: negative match count {count}")
    if len(lines) < 2 + count:
        raise MatchingError(f"{path}: expected {count} matches, found {len(lines) - 2}")
    rows = []
    for lineno in range(2, 2 + count):
        parts = lines[lineno].split()
        if len(parts) != 5:
            raise MatchingError(f"{path}:{lineno + 1}: expected 5 fields")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatchingError(f"{path}:{lineno + 1}: non-numeric field ({exc})") from exc
    arr = np.array(rows).reshape(-1, 5)
    return MatchSet(ids[0], ids[1], arr[:, 0:2], arr[:, 2:4], arr[:, 4])
