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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EstimationFailedError, MatchingError
from .imgcore import ConfidenceMap, Image, Mask, SparseMap, _window_sums, bilinear_sample, gray_array

logger = logging.getLogger(__name__)


def round_to_pixel(coords: np.ndarray) -> np.ndarray:
    """Nearest-integer pixel rule used everywhere matches meet the grid."""
    return np.floor(np.asarray(coords, dtype=np.float64) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class MatchSet:
    """Correspondences between one RGB frame and one X frame.

    Stored as parallel arrays. Construction deduplicates matches that round
    to the same RGB pixel, keeping the highest-confidence one.
    """

    rgb_frame: str
    x_frame: str
    p_rgb: np.ndarray  # (N, 2) float64, (row, col)
    p_x: np.ndarray  # (N, 2) float64, (row, col)
    conf: np.ndarray  # (N,) float64 in [0, 1]
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
        if len(conf) and (conf.min() < 0.0 or conf.max() > 1.0):
            raise MatchingError("match confidence outside [0, 1]")
        keep = _dedup_indices(p_rgb, conf)
        for name, arr in (("p_rgb", p_rgb[keep]), ("p_x", p_x[keep]), ("conf", conf[keep])):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
        if abs(h[2, 2]) < 1e-12:
            raise ValueError("homography h[2,2] too close to zero")
        h = h / h[2, 2]
        if abs(np.linalg.det(h)) <= 1e-12:
            raise ValueError("homography is singular")
        h = np.ascontiguousarray(h)
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @staticmethod
    def identity() -> "Homography":
        return Homography(np.eye(3))

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.h))

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Map (N, 2) (row, col) points through the transform."""
        return _apply_homography(self.h, pts)


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


def zncc(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-normalized cross-correlation of two equal-size patches."""
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom <= 1e-12:
        return 0.0
    return float(a @ b / denom)


class ClassicalBackend:
    """Deterministic cross-modal matcher.

    Detects local gradient-energy maxima on a stride grid in the RGB frame
    and searches the X frame within a window for the best ZNCC score of
    16x16 gradient-orientation-weighted patches.
    """

    def __init__(
        self,
        stride: int = 8,
        search_radius: int = 32,
        patch: int = 16,
        min_energy: float = 1e-3,
    ) -> None:
        self.name = "classical"
        self.stride = stride
        self.search_radius = search_radius
        self.patch = patch
        self.min_energy = min_energy

    def match_pair(
        self, rgb: Image, x: Image, rgb_frame: str = "0", x_frame: str = "0"
    ) -> MatchSet:
        """Produce correspondences between an RGB frame and an X frame."""
        half = self.patch // 2
        if min(rgb.height, rgb.width, x.height, x.width) < self.patch + 2:
            return MatchSet(
                rgb_frame, x_frame,
                np.empty((0, 2)), np.empty((0, 2)), np.empty(0),
                warnings=("image smaller than descriptor window",),
            )
        g_rgb = _orientation_channels(gray_array(rgb))
        g_x = _orientation_channels(gray_array(x))
        energy = np.hypot(g_rgb[:, :, 0], g_rgb[:, :, 1])

        keypoints = self._detect(energy, half)
        p_rgb, p_x, conf = [], [], []
        for r, c in keypoints:
            hit = self._search(g_rgb, g_x, r, c, half)
            if hit is None:
                continue
            (rx, cx), score = hit
            p_rgb.append((float(r), float(c)))
            p_x.append((float(rx), float(cx)))
            conf.append(score)
        if not conf:
            return MatchSet(rgb_frame, x_frame, np.empty((0, 2)), np.empty((0, 2)), np.empty(0))
        return MatchSet(rgb_frame, x_frame, np.array(p_rgb), np.array(p_x), np.array(conf))

    def _detect(self, energy: np.ndarray, half: int) -> list[tuple[int, int]]:
        height, width = energy.shape
        pts = []
        for r0 in range(half, height - half, self.stride):
            for c0 in range(half, width - half, self.stride):
                cell = energy[r0 : min(r0 + self.stride, height - half),
                              c0 : min(c0 + self.stride, width - half)]
                if cell.size == 0:
                    continue
                idx = int(np.argmax(cell))
                dr, dc = divmod(idx, cell.shape[1])
                if cell[dr, dc] > self.min_energy:
                    pts.append((r0 + dr, c0 + dc))
        return pts

    def _search(
        self, g_rgb: np.ndarray, g_x: np.ndarray, r: int, c: int, half: int
    ) -> tuple[tuple[int, int], float] | None:
        desc = g_rgb[r - half : r + half, c - half : c + half]
        d = desc - desc.mean()
        d_norm = np.linalg.norm(d)
        if d_norm <= 1e-12:
            return None
        height, width = g_x.shape[:2]
        rad = self.search_radius
        r_lo = max(half, r - rad)
        r_hi = min(height - half, r + rad + 1)
        c_lo = max(half, c - rad)
        c_hi = min(width - half, c + rad + 1)
        if r_lo >= r_hi or c_lo >= c_hi:
            return None
        region = g_x[r_lo - half : r_hi + half - 1, c_lo - half : c_hi + half - 1]
        windows = np.lib.stride_tricks.sliding_window_view(
            region, (self.patch, self.patch), axis=(0, 1)
        )
        # ZNCC from window sums: centered dot = cross - S1*mean(d),
        # centered norm^2 = S2 - S1^2/K. The plain einsum loop reads the
        # windows in place; optimize=True would copy every window out first
        cross = np.einsum("abcij,ijc->ab", windows, desc)
        k = desc.size
        s1 = _window_sums(region.sum(axis=2), self.patch)
        s2 = _window_sums((region * region).sum(axis=2), self.patch)
        var = np.maximum(s2 - s1 * s1 / k, 0.0)
        denom = np.sqrt(var) * d_norm
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(denom > 1e-12, (cross - s1 * desc.mean()) / denom, -np.inf)
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
    target_frame: str,
    out_shape: tuple[int, int],
) -> tuple[SparseMap, ConfidenceMap]:
    """Stack matched X values from a window of frames onto the RGB pixel grid.

    Each match contributes the bilinearly sampled X value at its X-frame
    coordinate to the nearest integer pixel of its RGB-frame coordinate.
    Pixels average their contributions (values and confidences alike,
    confidence clipped to [0, 1] after the mean); pixels with no contributor
    are void.
    """
    if len(sets) != len(x_frames):
        raise MatchingError("one X frame required per match set")
    height, width = out_shape
    vsum = np.zeros(out_shape)
    csum = np.zeros(out_shape)
    count = np.zeros(out_shape, dtype=np.int64)
    for ms, x_img in zip(sets, x_frames):
        if ms.rgb_frame != target_frame:
            raise MatchingError(
                f"match set targets frame {ms.rgb_frame!r}, expected {target_frame!r}"
            )
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
    return SparseMap(values, count), ConfidenceMap(conf)


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


def _dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    n = len(src)
    a = np.zeros((2 * n, 9))
    u, v = src[:, 0], src[:, 1]
    x, y = dst[:, 0], dst[:, 1]
    ones = np.ones(n)
    zeros = np.zeros(n)
    a[0::2] = np.column_stack([u, v, ones, zeros, zeros, zeros, -x * u, -x * v, -x])
    a[1::2] = np.column_stack([zeros, zeros, zeros, u, v, ones, -y * u, -y * v, -y])
    # a minimal 4-point system is 8x9 and needs the full V; a refit over many
    # matches needs only V, never the 2n x 2n U
    _, s, vt = np.linalg.svd(a, full_matrices=2 * n < 9)
    if n > 4 and s[-2] < 1e-12:
        return None
    h = vt[-1].reshape(3, 3)
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


def _has_collinear_triple(pts: np.ndarray, eps: float = 1e-6) -> bool:
    from itertools import combinations

    for i, j, k in combinations(range(len(pts)), 3):
        v1 = pts[j] - pts[i]
        v2 = pts[k] - pts[i]
        if abs(v1[0] * v2[1] - v1[1] * v2[0]) < eps:
            return True
    return False


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


def estimate_homography(
    ms: MatchSet,
    reproj_thresh: float = 2.0,
    max_iters: int = 1000,
    seed: int = 0,
) -> tuple[Homography, np.ndarray]:
    """RANSAC homography from RGB coordinates to X coordinates.

    Minimal 4-point samples are drawn with probability proportional to match
    confidence, solved with Hartley-normalized DLT, scored by MSAC over the
    symmetric transfer error, and the winner is refit on all of its inliers.
    Deterministic for a fixed seed.

    Returns (homography, inlier mask). Raises EstimationFailedError when
    fewer than 4 matches exist or every sample is degenerate; callers fall
    back to the identity warp.
    """
    n = len(ms)
    if n < 4:
        raise EstimationFailedError(f"need at least 4 matches, got {n}")
    src = ms.p_rgb
    dst = ms.p_x
    t_src = _normalizing_transform(src)
    t_dst = _normalizing_transform(dst)
    src_n = _apply_homography(t_src, src)
    dst_n = _apply_homography(t_dst, dst)
    t_dst_inv = np.linalg.inv(t_dst)

    total_conf = ms.conf.sum()
    probs = ms.conf / total_conf if total_conf > 0 else None
    rng = np.random.default_rng(seed)

    src_cols = (np.ascontiguousarray(src[:, 0]), np.ascontiguousarray(src[:, 1]))
    dst_cols = (np.ascontiguousarray(dst[:, 0]), np.ascontiguousarray(dst[:, 1]))
    thresh_sq = reproj_thresh * reproj_thresh
    best_score = np.inf
    best_mask: np.ndarray | None = None
    best_h: np.ndarray | None = None
    for _ in range(max_iters):
        idx = rng.choice(n, size=4, replace=False, p=probs)
        if _has_collinear_triple(src_n[idx]) or _has_collinear_triple(dst_n[idx]):
            continue
        h_n = _dlt(src_n[idx], dst_n[idx])
        if h_n is None:
            continue
        h = t_dst_inv @ h_n @ t_src
        if abs(h[2, 2]) < 1e-12 or abs(np.linalg.det(h)) < 1e-12:
            continue
        err = _symmetric_transfer_error(h, src_cols, dst_cols)
        score = np.minimum(err * err, thresh_sq).sum()
        mask = err < reproj_thresh
        if score < best_score and mask.sum() >= 4:
            best_score = score
            best_mask = mask
            best_h = h

    if best_h is None:
        raise EstimationFailedError("no non-degenerate RANSAC sample produced a model")

    h_refit = _dlt(src_n[best_mask], dst_n[best_mask])
    if h_refit is not None:
        candidate = t_dst_inv @ h_refit @ t_src
        if abs(candidate[2, 2]) > 1e-12 and abs(np.linalg.det(candidate)) > 1e-12:
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
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    pts = np.column_stack([rows.ravel().astype(np.float64), cols.ravel().astype(np.float64)])
    src = h.apply(pts)
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
    lines = Path(path).read_text().splitlines()
    if len(lines) < 2:
        raise MatchingError(f"{path}: truncated match file")
    ids = lines[0].split()
    if len(ids) != 2:
        raise MatchingError(f"{path}: bad header line {lines[0]!r}")
    try:
        count = int(lines[1])
    except ValueError as exc:
        raise MatchingError(f"{path}: bad count line") from exc
    if len(lines) < 2 + count:
        raise MatchingError(f"{path}: expected {count} matches, found {len(lines) - 2}")
    rows = []
    for lineno in range(2, 2 + count):
        parts = lines[lineno].split()
        if len(parts) != 5:
            raise MatchingError(f"{path}:{lineno + 1}: expected 5 fields")
        rows.append([float(p) for p in parts])
    arr = np.array(rows).reshape(-1, 5)
    return MatchSet(ids[0], ids[1], arr[:, 0:2], arr[:, 2:4], arr[:, 4])
