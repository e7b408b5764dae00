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

Each level starts from `init_dense`, an inverse-square-distance fill from
every void pixel's 4 nearest known pixels. Equally distant anchors are
ranked by (d2, dr, dc): squared distance, then row offset, then column
offset, so the anchor above comes before the one to the left. An offset scan
finds those anchors wherever they lie within its radius; the pixels it
leaves open, and every pixel of a map too sparse for the scan to pay, take
their anchors from a k-d tree, whose internal order breaks their ties.

The neighborhood sum is one product with a diagonal-sparse operator per
iteration. `AffinityField` holds the weights only in that layout, built once
per frame and shared by every level, `reach` run and the fine stage:
diagonal k lies at the flat offset of neighbor offset k. scipy's DIA kernel
adds the diagonals into a zeroed sum one at a time in storage order, so each
pixel's sum runs in offset order, as in the scalar reference recurrence, and
the result is the same bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import dia_array
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
        if not deltas or list(deltas) != sorted(deltas) or not all(0.0 <= d < 1.0 for d in deltas):
            raise ValueError("thresholds must be non-empty, ascending and within [0, 1)")


class AffinityField:
    """Per-pixel normalized neighbor weights, held as one diagonal-sparse operator.

    `weights[k]` (K, H, W) pairs with `offsets[k]`; out-of-bounds neighbors
    carry weight 0 and each pixel's weights sum to 1. The weights are stored
    only in `operator`: pixel (r, c) has flat index r * stride + c, and
    diagonal k, at flat offset dr * stride + dc, holds weights[k] shifted to
    the column it multiplies. So `operator @ x` adds w_k * x[p + offset_k]
    into a zeroed sum in offset order at every pixel p, as the reference
    recurrence does. `stride` is W unless the raster is narrower than the
    offsets' column span; there it is widened with zero columns so that
    distinct offsets keep distinct diagonals. The field is built in the
    buffer of `weights` when that is a writable C-contiguous float64 array,
    which it overwrites, so no second (K, H, W) copy is held; a caller that
    needs the weights afterwards passes a copy.
    """

    def __init__(self, weights: np.ndarray, offsets: tuple[tuple[int, int], ...]) -> None:
        w = np.require(weights, np.float64, "CW")
        if w.ndim != 3 or w.shape[0] != len(offsets):
            raise ValueError("weights must be (K, H, W) matching offsets")
        if not np.all(np.isfinite(w)) or w.min() < 0.0:
            raise ValueError("affinity weights must be finite and non-negative")
        sums = w.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError("per-pixel affinity weights must sum to 1")
        height, width = w.shape[1:]
        for weight, (dr, dc) in zip(w, offsets):
            rows = slice(max(0, height - dr), None) if dr >= 0 else slice(None, -dr)
            cols = slice(max(0, width - dc), None) if dc >= 0 else slice(None, -dc)
            if weight[rows].any() or weight[:, cols].any():
                raise ValueError("out-of-bounds neighbors must carry weight 0")
        self.offsets = tuple(offsets)
        self.shape = (height, width)
        self.stride = max(width, 2 * max((abs(dc) for _, dc in offsets), default=0) + 1)
        if self.stride > width:
            padded = np.zeros((len(offsets), height, self.stride))
            padded[..., :width] = w
            w = padded
        size = height * self.stride
        data = w.reshape(len(offsets), size)
        flat_offsets = [dr * self.stride + dc for dr, dc in offsets]
        # each row moves from pixel to column order in place; numpy buffers
        # the overlapping copy
        for row, offset in zip(data, flat_offsets):
            cols, pixels = _diagonal_span(offset, size)
            row[cols] = row[pixels]
            row[: cols.start] = 0.0
            row[cols.stop :] = 0.0
        data.flags.writeable = False
        self.operator = dia_array((data, flat_offsets), shape=(size, size))

    def flatten(self, raster: np.ndarray) -> np.ndarray:
        """An (H, W) raster as a new flat vector in the operator's pixel order."""
        height, width = self.shape
        out = np.zeros((height, self.stride))
        out[:, :width] = raster
        return out.ravel()

    def raster(self, flat: np.ndarray) -> np.ndarray:
        """The (..., H, W) raster view of vectors in the operator's pixel order."""
        height, width = self.shape
        return flat.reshape(*flat.shape[:-1], height, self.stride)[..., :width]


def _diagonal_span(offset: int, size: int) -> tuple[slice, slice]:
    """Column slice of a diagonal at `offset` and the pixel slice it weighs.

    Entry j of the diagonal multiplies pixel j and weighs the neighbor sum of
    pixel j - offset; a diagonal wholly off the raster spans nothing.
    """
    start, stop = max(0, offset), min(size, size + offset)
    stop = max(start, stop)
    return slice(start, stop), slice(start - offset, stop - offset)


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
    """The AffinityField of the RGB image's `_guidance_weights`."""
    return AffinityField(_guidance_weights(rgb), OFFSETS)


def _guidance_weights(rgb: Image) -> np.ndarray:
    """Joint-bilateral guidance weights (K, H, W) from the RGB image, paired with OFFSETS.

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
    return weights


# The anchor scan visits offsets out to this radius. It stops at the first
# shell whose disk the observed known density expects to hold _SCAN_COVER
# times the anchors a pixel needs, and does not scan at all when that disk
# would be wider than the radius: there the k-d tree is cheaper than the
# offsets a pixel would have to visit.
_SCAN_RADIUS = 6
_SCAN_COVER = 2.0


def _scan_offsets(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d2, dr, dc) of every nonzero offset within `radius`, sorted by (d2, dr, dc)."""
    span = np.arange(-radius, radius + 1)
    dr, dc = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    d2 = dr * dr + dc * dc
    sel = (d2 > 0) & (d2 <= radius * radius)
    order = np.lexsort((dc[sel], dr[sel], d2[sel]))
    return d2[sel][order], dr[sel][order], dc[sel][order]


_SCAN_D2, _SCAN_DR, _SCAN_DC = _scan_offsets(_SCAN_RADIUS)


def _scan_anchors(
    sparse: SparseMap, void_coords: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Nearest anchors of void pixels by scanning offsets in (d2, dr, dc) order.

    Returns (d2, vals, pending): column p of the (k, V) arrays holds the
    squared distances and values of void pixel p's k nearest anchors,
    nearest first, for every pixel the scan closes; `pending` indexes the
    pixels it leaves open, whose columns are to be filled. A pixel closes
    when k anchors lie within the scanned disk: every offset nearer than its
    k-th anchor has been visited, so these are its k nearest, and the
    visiting order breaks distance ties. Returns None, scanning nothing,
    when the known density is too low for the scan to pay.
    """
    n_void = len(void_coords)
    known = sparse.known
    density = np.count_nonzero(known) / known.size
    cover = np.flatnonzero(density * np.arange(1, len(_SCAN_D2) + 1) >= _SCAN_COVER * k)
    if not cover.size:
        return None
    n_offsets = int(np.searchsorted(_SCAN_D2, _SCAN_D2[cover[0]], side="right"))
    # zero-margined rasters, so that no offset leaves the buffer
    pad = int(np.abs(_SCAN_DR[:n_offsets]).max())
    height, width = known.shape
    stride = width + 2 * pad
    known_pad = np.zeros((height + 2 * pad, stride), dtype=bool)
    known_pad[pad : pad + height, pad : pad + width] = known
    values_pad = np.zeros(known_pad.shape)
    values_pad[pad : pad + height, pad : pad + width] = sparse.values
    known_pad = known_pad.ravel()
    flat_offsets = _SCAN_DR * stride + _SCAN_DC

    origin = (void_coords[:, 0] + pad) * stride + void_coords[:, 1] + pad
    pending, pos = np.arange(n_void), origin
    found = np.zeros(n_void, dtype=np.int64)
    # anchor[i, p] is the offset of pixel p's i-th anchor; row k takes the
    # hits beyond the k-th of pixels not yet dropped from `pending`
    anchor = np.zeros((k + 1, n_void), dtype=np.int64)
    anchor_flat = anchor.reshape(-1)
    start = 0
    while start < n_offsets and pending.size:
        stop = int(np.searchsorted(_SCAN_D2, _SCAN_D2[start], side="right"))
        for j in range(start, stop):
            hit = np.flatnonzero(known_pad[pos + flat_offsets[j]])
            anchor_flat[np.minimum(found[hit], k) * n_void + pending[hit]] = j
            found[hit] += 1
        start = stop
        # dropping closed pixels costs a pass over all scanned ones, so it
        # waits until a quarter of them have closed
        still = found < k
        if 4 * np.count_nonzero(still) <= 3 * len(still):
            pending, pos, found = pending[still], pos[still], found[still]
    offsets = anchor[:k]
    return (_SCAN_D2[offsets].astype(np.float64),
            values_pad.ravel()[origin + flat_offsets[offsets]], pending[found < k])


def _tree_anchors(
    sparse: SparseMap, coords: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(d2, vals) of the k nearest anchors of each pixel at `coords`, as in
    `_scan_anchors`, from a k-d tree query; the tree's order breaks ties."""
    known = sparse.known
    # midpoint splits over the pixel lattice: a third of the balanced
    # tree's build time, and no slower to query
    tree = cKDTree(np.argwhere(known), balanced_tree=False, compact_nodes=False)
    dist, idx = tree.query(coords, k=k, workers=-1)
    # dist is the correctly rounded root of an integer, so squaring and
    # rounding recovers that integer exactly
    dist = np.ascontiguousarray(dist.reshape(len(coords), k).T)
    np.rint(np.multiply(dist, dist, out=dist), out=dist)
    return dist, sparse.values[known][idx.reshape(len(coords), k).T]


def _idw(d2: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Inverse-square-distance mean of each column's anchors, nearest first.

    Sums the weighted differences from the nearest anchor's value, so a
    pixel whose anchors share one value takes that value exactly.
    """
    w = 1.0 / d2
    num = np.zeros(d2.shape[1])
    den = np.zeros(d2.shape[1])
    for wj, vj in zip(w, vals):
        num += wj * (vj - vals[0])
        den += wj
    return vals[0] + num / den


def init_dense(sparse: SparseMap) -> Image:
    """Inverse-distance-weighted (power 2) fill from the 4 nearest known pixels.

    Equally distant anchors are ranked by (d2, dr, dc), the smaller row
    offset first, then the smaller column offset, wherever the offset scan
    reaches a pixel's 4th anchor: the scan visits offsets within
    _SCAN_RADIUS when the known density makes that cheaper than a tree
    query. A void pixel with fewer than 4 anchors inside the scanned disk
    takes its 4 nearest from a k-d tree query, whose internal order breaks
    its ties. With fewer than 4 known pixels every one of them is an anchor.
    Anchors that share one value fill with that value exactly.
    """
    known = sparse.known
    n_known = int(np.count_nonzero(known))
    if n_known == 0:
        raise DensifyError("cannot initialize from an all-void map")
    out = np.array(sparse.values, dtype=np.float64)
    void = ~known
    if not void.any():
        return Image(out, units=sparse.units)
    void_coords = np.argwhere(void)
    k = min(4, n_known)
    scanned = _scan_anchors(sparse, void_coords, k)
    if scanned is None:
        d2, vals = _tree_anchors(sparse, void_coords, k)
    else:
        d2, vals, pending = scanned
        if pending.size:
            d2[:, pending], vals[:, pending] = _tree_anchors(sparse, void_coords[pending], k)
    out[void] = _idw(d2, vals)
    return Image(out, units=sparse.units)


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
    if l0.data.ndim != 2:
        raise DensifyError("propagation operates on single-channel rasters")
    if l0.shape != aff.shape:
        raise DensifyError("raster shape differs from the affinity field's")
    anchor = sparse.known.astype(np.float64)
    if cfg.use_confidence:
        anchor = anchor * cm.conf
    xm = np.where(sparse.known, sparse.values, 0.0)
    known_vals = sparse.values[sparse.known]
    lo = min(l0.data.min(), known_vals.min()) if known_vals.size else l0.data.min()
    hi = max(l0.data.max(), known_vals.max()) if known_vals.size else l0.data.max()

    # one product with the affinity operator per iteration: it sums
    # w_k * L[p + offset_k] per pixel in offset order, as the reference does.
    # Padding columns, if any, have no weights, keep 0 and pull 0, so they
    # stay 0.
    keep = aff.flatten(1.0 - anchor)
    pull = aff.flatten(anchor * xm)
    current = aff.flatten(l0.data)
    delta = np.empty_like(current)
    for _ in range(cfg.iterations):
        nxt = aff.operator @ current
        nxt *= keep
        nxt += pull
        np.subtract(nxt, current, out=delta)
        step = float(np.abs(delta, out=delta).max())
        if step_sizes is not None:
            step_sizes.append(step)
        current = nxt
        # a non-finite value anywhere makes the step non-finite
        if not math.isfinite(step):
            raise DensifyError("non-finite value during propagation")
        if step < cfg.tol:
            break
    current = aff.raster(current)
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
    return SparseMap(values, counts, sparse.units), ConfidenceMap(np.where(keep, conf.conf, 0.0))


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
    out: dict[float, Image] = {}
    kept: dict[float, tuple[SparseMap, ConfidenceMap]] = {}
    for delta in cfg.thresholds:
        level_sparse, level_conf = threshold_sparse(sparse, conf, delta)
        if level_sparse.num_known == 0:
            logger.warning("threshold %.3f keeps no pixels; level omitted", delta)
            continue
        kept[delta] = level_sparse, level_conf
        out[delta] = propagate(init_dense(level_sparse), aff, level_sparse, level_conf, cfg)
    if not out:
        raise DensifyError("all confidence levels are empty")
    if certainty is not None and len(out) > 1:
        for delta, (level_sparse, level_conf) in kept.items():
            certainty[delta] = float(reach(aff, level_sparse, level_conf, cfg).data.mean())
    return out
