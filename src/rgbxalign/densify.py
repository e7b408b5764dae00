"""Confidence-aware sparse-to-dense propagation with RGB-guided affinities.

The recurrence blends, per pixel, an affinity-weighted average of the
neighborhood with the anchored known value:

    L[t+1] = (1 - Cs*Cm) * sum_k w_k * L[t]_k  +  Cs*Cm * Xm

Cs is the known-pixel indicator of the sparse map (1 where a value was
observed, 0 on void pixels) and Cm the matching confidence, so the anchor
Cs*Cm is the confidence at known pixels and 0 elsewhere. With
`DensifyConfig.use_confidence` off, Cm is forced to 1 and the anchor is Cs.

Affinities are deterministic joint-bilateral weights derived from the RGB
guidance (color and spatial Gaussian kernels over 8 offsets at each of
several radii, normalized to sum to 1 per pixel), so every update is a
convex combination and the iteration stays inside the known value range.
Run at K ascending confidence thresholds, the per-level results feed the
fusion stage downstream, ranked by each level's mean `reach`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DensifyError
from .imgcore import ConfidenceMap, Image, SparseMap, gray_array

logger = logging.getLogger(__name__)

# 8-connected ring, scaled by each radius; fixed order pins the floating-point
# summation sequence (the scalar reference recurrence must mirror it).
_RING = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
# The ring is taken at each of these radii; the guidance weights use these
# color and spatial bandwidths.
RADII = (1, 2, 4)
SIGMA_COLOR = 0.05
SIGMA_SPATIAL = 1.5
# Neighbor offsets in weight order: every ring offset at the first radius,
# then at the next.
OFFSETS = tuple((r * a, r * b) for r in RADII for (a, b) in _RING)


@dataclass(frozen=True)
class DensifyConfig:
    thresholds: tuple[float, ...] = (0.15, 0.3, 0.5)
    iterations: int = 24
    tol: float = 1e-4
    # when False, the recurrence anchors with the known-pixel indicator
    # alone, forcing Cm to 1 (thresholding still applies)
    use_confidence: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        deltas = tuple(self.thresholds)
        if deltas and (list(deltas) != sorted(deltas) or not all(0.0 <= d < 1.0 for d in deltas)):
            raise ValueError("thresholds must be ascending and within [0, 1)")


@dataclass(frozen=True)
class AffinityField:
    """Per-pixel normalized neighbor weights.

    weights[k] pairs with offsets[k]; out-of-bounds neighbors carry weight 0
    and each pixel's weights sum to 1.
    """

    weights: np.ndarray  # (K, H, W)
    offsets: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 3 or w.shape[0] != len(self.offsets):
            raise ValueError("weights must be (K, H, W) matching offsets")
        if not np.all(np.isfinite(w)) or w.min() < 0.0:
            raise ValueError("affinity weights must be finite and non-negative")
        sums = w.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError("per-pixel affinity weights must sum to 1")
        height, width = w.shape[1:]
        for weight, (dr, dc) in zip(w, self.offsets):
            rows = slice(max(0, height - dr), None) if dr >= 0 else slice(None, -dr)
            cols = slice(max(0, width - dc), None) if dc >= 0 else slice(None, -dc)
            if weight[rows].any() or weight[:, cols].any():
                raise ValueError("out-of-bounds neighbors must carry weight 0")
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def _shifted(arr: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """arr sampled at (row+dr, col+dc), zero outside."""
    height, width = arr.shape
    out = np.zeros_like(arr)
    # the ends are clamped at 0 so that a shift longer than the raster
    # selects nothing instead of counting from the far end
    src_r = slice(max(0, dr), min(height, max(0, height + dr)))
    dst_r = slice(max(0, -dr), min(height, max(0, height - dr)))
    src_c = slice(max(0, dc), min(width, max(0, width + dc)))
    dst_c = slice(max(0, -dc), min(width, max(0, width - dc)))
    out[dst_r, dst_c] = arr[src_r, src_c]
    return out


def compute_affinities(rgb: Image) -> AffinityField:
    """Joint-bilateral guidance weights from the RGB image.

    Raw weight for offset (a, b) at radius r in RADII:
        exp(-(g(p) - g(p + (r*a, r*b)))^2 / (2 SIGMA_COLOR^2))
        * exp(-r^2 / (2 SIGMA_SPATIAL^2))
    with g the grayscale guidance; zero out of bounds, then normalized to
    sum to 1 at every pixel.
    """
    g = gray_array(rgb)
    height, width = g.shape
    if height < 2 or width < 2:
        raise DensifyError("guidance image too small for neighborhood affinities")
    weights = np.zeros((len(OFFSETS), height, width))
    inv_color = 1.0 / (2.0 * SIGMA_COLOR**2)
    k = 0
    for r in RADII:
        spatial = np.exp(-(r * r) / (2.0 * SIGMA_SPATIAL**2))
        for a, b in _RING:
            dr, dc = r * a, r * b
            neighbor = _shifted(g, dr, dc)
            w = np.exp(-((g - neighbor) ** 2) * inv_color) * spatial
            # zero where the neighbor falls outside the raster
            inb = _shifted(np.ones_like(g), dr, dc)
            weights[k] = w * inb
            k += 1
    total = weights.sum(axis=0)
    if total.min() <= 0.0:
        raise DensifyError("pixel with no in-bounds neighbor")
    weights /= total
    return AffinityField(weights, OFFSETS)


def init_dense(sparse: SparseMap) -> Image:
    """Inverse-distance-weighted (power 2) fill from the 4 nearest known pixels."""
    known = sparse.known
    n_known = int(np.count_nonzero(known))
    if n_known == 0:
        raise DensifyError("cannot initialize from an all-void map")
    out = np.array(sparse.values, dtype=np.float64)
    void = ~known
    if not void.any():
        return Image(out)
    known_coords = np.argwhere(known)
    known_vals = sparse.values[known]
    void_coords = np.argwhere(void)
    k = min(4, n_known)
    dist, idx = cKDTree(known_coords).query(void_coords, k=k, workers=-1)
    dist = np.atleast_2d(dist.reshape(len(void_coords), k))
    idx = np.atleast_2d(idx.reshape(len(void_coords), k))
    w = 1.0 / (dist * dist)
    filled = (w * known_vals[idx]).sum(axis=1) / w.sum(axis=1)
    out[void] = filled
    return Image(out)


def propagate(
    l0: Image,
    aff: AffinityField,
    sparse: SparseMap,
    cm: ConfidenceMap,
    cfg: DensifyConfig | None = None,
    step_sizes: list[float] | None = None,
) -> Image:
    """Iterate the confidence-aware recurrence to T steps or convergence.

    Each pixel is anchored by Cs*Cm, where Cs is the known-pixel indicator
    of `sparse` and Cm is `cm`, or 1 when `cfg.use_confidence` is off. With
    Cm identically 1 this degenerates to the plain known-pixel-anchored
    recurrence. Pixels where Cs*Cm == 1 reproduce the known value exactly.
    Appends the max-abs update of every iteration to `step_sizes` if given.
    """
    cfg = cfg or DensifyConfig()
    current = np.array(l0.data, dtype=np.float64)
    if current.ndim != 2:
        raise DensifyError("propagation operates on single-channel rasters")
    anchor = sparse.known.astype(np.float64)
    if cfg.use_confidence:
        anchor = anchor * cm.conf
    xm = np.where(sparse.known, sparse.values, 0.0)
    known_vals = sparse.values[sparse.known]
    lo = min(current.min(), known_vals.min()) if known_vals.size else current.min()
    hi = max(current.max(), known_vals.max()) if known_vals.size else current.max()

    # neighbors are read from a zero-margined flat copy, so every shift is a
    # contiguous slice; a column shift that leaves the raster wraps into the
    # adjacent row, where the neighbor's weight is 0 and so is its product.
    # Bands of about 16k pixels keep the operands in cache. Products and sums
    # still run per pixel in offset order, as in the reference.
    height, width = current.shape
    size = height * width
    pad = max((max(abs(dr), abs(dc)) for dr, dc in aff.offsets), default=0)
    margin = pad * width + pad
    flat = np.zeros(size + 2 * margin)
    shifts = [margin + dr * width + dc for dr, dc in aff.offsets]
    weights = aff.weights.reshape(len(shifts), size)
    band = 16384
    keep = (1.0 - anchor).ravel()
    pull = (anchor * xm).ravel()
    term = np.empty(band)
    current = current.ravel()
    for _ in range(cfg.iterations):
        flat[margin : margin + size] = current
        acc = np.zeros(size)
        for p0 in range(0, size, band):
            p1 = min(size, p0 + band)
            acc_band, term_band = acc[p0:p1], term[: p1 - p0]
            for shift, weight in zip(shifts, weights):
                np.multiply(weight[p0:p1], flat[shift + p0 : shift + p1], out=term_band)
                acc_band += term_band
        nxt = keep * acc + pull
        step = float(np.abs(nxt - current).max())
        if step_sizes is not None:
            step_sizes.append(step)
        current = nxt
        if not np.all(np.isfinite(current)):
            raise DensifyError("non-finite value during propagation")
        if step < cfg.tol:
            break
    current = current.reshape(height, width)
    if current.min() < lo - 1e-9 or current.max() > hi + 1e-9:
        raise DensifyError("propagation escaped the convex value bound")
    return Image(current, units=l0.units)


def threshold_sparse(
    sparse: SparseMap, conf: ConfidenceMap, delta: float
) -> tuple[SparseMap, ConfidenceMap]:
    """Keep only known pixels whose confidence reaches delta."""
    keep = sparse.known & (conf.conf >= delta)
    values = np.where(keep, sparse.values, 0.0)
    counts = np.where(keep, sparse.counts, 0)
    return SparseMap(values, counts), ConfidenceMap(np.where(keep, conf.conf, 0.0))


def densify_level(
    aff: AffinityField, sparse: SparseMap, conf: ConfidenceMap, cfg: DensifyConfig
) -> Image:
    """Initialize and propagate a single sparse level."""
    return propagate(init_dense(sparse), aff, sparse, conf, cfg)


def reach(aff: AffinityField, sparse: SparseMap, conf: ConfidenceMap, cfg: DensifyConfig) -> Image:
    """How strongly confident anchors reach each pixel, in [0, 1].

    The level's own recurrence run on its confidence raster from a zero
    start: anchors are pulled toward their confidence (toward 1 when
    cfg.use_confidence is off) and void pixels start at 0. Within the
    iteration budget a pixel scores high only near confident anchors, so the
    score rises with anchor confidence and falls with anchor spacing.
    """
    field = SparseMap(
        np.where(sparse.known, conf.conf if cfg.use_confidence else 1.0, 0.0), sparse.counts
    )
    return propagate(Image(field.values), aff, field, conf, cfg)


def densify_multilevel(
    aff: AffinityField,
    sparse: SparseMap,
    conf: ConfidenceMap,
    cfg: DensifyConfig | None = None,
    certainty: dict[float, float] | None = None,
) -> dict[float, Image]:
    """Densify at each confidence threshold; returns {delta: dense image}.

    `aff` is the frame's `compute_affinities` field. Levels whose
    thresholded map keeps no pixel are omitted (and logged). Raises
    DensifyError when every level is empty. If `certainty` is given and more
    than one level is produced, it receives each level's mean `reach`; a
    lone level has nothing to be ranked against, so it gets none.
    """
    cfg = cfg or DensifyConfig()
    if not cfg.thresholds:
        raise DensifyError("no thresholds configured")
    out: dict[float, Image] = {}
    kept: dict[float, tuple[SparseMap, ConfidenceMap]] = {}
    for delta in cfg.thresholds:
        level_sparse, level_conf = threshold_sparse(sparse, conf, delta)
        if level_sparse.num_known == 0:
            logger.warning("threshold %.3f keeps no pixels; level omitted", delta)
            continue
        kept[delta] = level_sparse, level_conf
        out[delta] = densify_level(aff, level_sparse, level_conf, cfg)
    if not out:
        raise DensifyError("all confidence levels are empty")
    if certainty is not None and len(out) > 1:
        for delta, (level_sparse, level_conf) in kept.items():
            certainty[delta] = float(reach(aff, level_sparse, level_conf, cfg).data.mean())
    return out
