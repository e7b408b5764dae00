"""Level fusion, patch self-matching, and similarity-driven rejection.

An aligned RGB-X pair should self-match: patch i of the RGB image should be
most similar to patch i of the X image. Both images are described on a patch
grid by mod-pi gradient-orientation histograms (invariant to the
contrast inversions between modalities), a scaled dot-product similarity
matrix is formed, and its diagonal drives both a scalar alignment score and
the concentration-based rejection of badly densified patches.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .densify import AffinityField, DensifyConfig, densify_multilevel, init_dense, propagate
from .errors import FilterError
from .imgcore import ConfidenceMap, Image, SparseMap, _freeze, gray_array
from .quantiles import quantile

logger = logging.getLogger(__name__)

DESCRIPTOR_CELLS = 4  # 4x4 spatial cells
DESCRIPTOR_BINS = 8  # orientation bins over [0, pi)
DESCRIPTOR_DIM = DESCRIPTOR_CELLS * DESCRIPTOR_CELLS * DESCRIPTOR_BINS

# Window radius and regularization of the enhancement's guided filter.
GUIDED_RADIUS = 4
GUIDED_EPS = 1e-3

PATCH = 32  # side of a self-matching patch, px
TAU = 0.1  # temperature of the similarity matrix A = F_rgb @ F_x.T / TAU
LAMBDA = 0.1  # weight of the off-diagonal mass in the self-match score


# ---------------------------------------------------------------------------
# Deterministic enhancement + certainty-ranked fusion
# ---------------------------------------------------------------------------


def _box_filter(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the clamped (2r+1)^2 window, via cumulative sums."""

    def along(a: np.ndarray, r: int) -> np.ndarray:
        n = a.shape[0]
        cum = np.cumsum(a, axis=0)
        out = np.empty_like(a)
        out[: r + 1] = cum[r : 2 * r + 1]
        out[r + 1 : n - r] = cum[2 * r + 1 :] - cum[: n - 2 * r - 1]
        out[n - r :] = cum[-1:] - cum[n - 2 * r - 1 : n - r - 1]
        return out

    return along(along(arr, radius).T, radius).T


@dataclass(frozen=True)
class GuideFactor:
    """The part of the guided filter that depends on the guide alone.

    `channels` are the guide's C planes (C is 1 or 3), `count` the number of
    pixels in each clamped window and `means` the window mean of each plane.
    `inverse` holds the distinct entries of (Sigma + GUIDED_EPS * I)^-1 per
    pixel, Sigma being the window covariance of the planes: 1 / (var + eps)
    for C = 1, the upper triangle row by row for C = 3 (the inverse is
    symmetric, so 6 planes stand for the 3 x 3). `radius` 0 marks a raster
    too small to filter.
    """

    channels: tuple[np.ndarray, ...]
    radius: int
    count: np.ndarray | None = None
    means: tuple[np.ndarray, ...] = ()
    inverse: tuple[np.ndarray, ...] = ()

    @property
    def shape(self) -> tuple[int, int]:
        return self.channels[0].shape


# entry of GuideFactor.inverse at (row, col) of the C x C inverse
_SYMMETRIC = {1: ((0,),), 3: ((0, 1, 2), (1, 3, 4), (2, 4, 5))}


def factor_guide(rgb: Image) -> GuideFactor:
    """Window statistics and the regularized covariance inverse of a guide.

    Computed once per frame and shared by every level `guided_filter`
    smooths against it. The 3 x 3 inverse is the adjugate over the
    determinant; Sigma + eps * I is symmetric positive definite, so the
    determinant is at least eps^3.
    """
    guide = rgb.data.reshape(rgb.shape + (rgb.channels,))
    channels = tuple(guide[:, :, c] for c in range(rgb.channels))
    r = min(GUIDED_RADIUS, (min(rgb.shape) - 1) // 2)
    if r < 1:
        return GuideFactor(channels, 0)
    n = _box_filter(np.ones(rgb.shape), r)
    means = tuple(_box_filter(ch, r) / n for ch in channels)
    # upper triangle of Sigma + eps * I, row by row
    sigma = []
    for c1 in range(len(channels)):
        for c2 in range(c1, len(channels)):
            cov = _box_filter(channels[c1] * channels[c2], r) / n - means[c1] * means[c2]
            if c1 == c2:
                cov += GUIDED_EPS
            sigma.append(cov)
    if len(channels) == 1:
        return GuideFactor(channels, r, n, means, (np.divide(1.0, sigma[0], out=sigma[0]),))
    s00, s01, s02, s11, s12, s22 = sigma
    inverse = (
        s11 * s22 - s12 * s12,
        s02 * s12 - s01 * s22,
        s01 * s12 - s02 * s11,
        s00 * s22 - s02 * s02,
        s01 * s02 - s00 * s12,
        s00 * s11 - s01 * s01,
    )
    det = s00 * inverse[0]
    det += s01 * inverse[1]
    det += s02 * inverse[2]
    for entry in inverse:
        entry /= det
    return GuideFactor(channels, r, n, means, inverse)


def guided_filter(factor: GuideFactor, src: np.ndarray) -> np.ndarray:
    """Guided filter of `src` against a factored (H, W, C) guide.

    The colour form of He et al., Guided Image Filtering (TPAMI 2013); with
    C = 1 it is their single-channel filter.

    Regressing the target on all C guide channels lets the filter keep any
    structure the guide can explain (per-channel mixes included) while
    still averaging away variation uncorrelated with it.
    """
    if src.shape != factor.shape:
        raise FilterError("guided filter needs a guide matching the source")
    r = factor.radius
    if r < 1:
        return src.copy()
    n = factor.count
    mean_p = _box_filter(src, r) / n
    cov_ip = [_box_filter(ch * src, r) / n - m * mean_p
              for ch, m in zip(factor.channels, factor.means)]
    # a = (Sigma + eps * I)^-1 cov_ip; b = mean_p - a . means
    b = mean_p
    out = np.zeros_like(src)
    for row, ch, m in zip(_SYMMETRIC[len(cov_ip)], factor.channels, factor.means):
        a = factor.inverse[row[0]] * cov_ip[0]
        for k, cov in zip(row[1:], cov_ip[1:]):
            a += factor.inverse[k] * cov
        b -= a * m
        mean_a = _box_filter(a, r)
        mean_a /= n
        mean_a *= ch
        out += mean_a
    mean_b = _box_filter(b, r)
    mean_b /= n
    out += mean_b
    return out


def enhance(levels: Sequence[Image], rgb: Image) -> list[Image]:
    """RGB-guided smoothing plus unsharp masking of each level of a frame.

    Stands in for the learned enhancement: one guided-filter pass
    (GUIDED_RADIUS, GUIDED_EPS, every channel of the RGB frame as guide)
    suppresses propagation noise the RGB image cannot explain, then unsharp
    masking with amount 0.5 restores edge contrast; each level is clamped
    to its own input range. The guide is factored once for all levels, so
    a level comes out the same whether enhanced alone or with others.
    """
    if any(xd.shape != rgb.shape for xd in levels):
        raise FilterError("enhance requires dimension-matched images")
    factor = factor_guide(rgb)
    out = []
    for xd in levels:
        src = xd.data
        smoothed = guided_filter(factor, src)
        sharp = smoothed + 0.5 * (smoothed - gaussian_filter(smoothed, sigma=1.0, mode="nearest"))
        out.append(Image(np.clip(sharp, src.min(), src.max()), units=xd.units))
    return out


def fuse_levels(enhanced: list[Image], certainty: list[float] | None = None) -> Image:
    """Per-pixel weighted mean over the surviving levels, ranked by certainty.

    Level i weighs the rank of certainty[i] among the levels: 1 for the
    least certain, K for the most certain of K, tied levels sharing the mean
    of their ranks. Without certainties every level weighs the same (the
    plain mean). `densify_and_fuse` passes each level's mean `densify.reach`,
    which rises with anchor confidence and falls with anchor spacing. Nested
    levels share most anchors, so their certainties differ by a few percent
    and weights proportional to them would be the plain mean; the ranks
    keep the fusion a smooth average that trusts the best-supported level
    most. On dense, confidence-ordered matches that is the strictest level,
    on sparse ones a looser level with more anchors.
    """
    if not enhanced:
        raise FilterError("no levels to fuse")
    first = enhanced[0]
    for img in enhanced[1:]:
        if img.shape != first.shape:
            raise FilterError("levels must share dimensions")
    if certainty is None:
        weights = np.ones(len(enhanced))
    else:
        cert = np.asarray(certainty, dtype=np.float64)
        if cert.shape != (len(enhanced),):
            raise FilterError("need one certainty per level")
        # 1-based rank; tied levels share the mean of their ranks
        below = (cert[None, :] < cert[:, None]).sum(axis=1)
        tied = (cert[None, :] == cert[:, None]).sum(axis=1)
        weights = below + (tied + 1) / 2.0
    acc = np.zeros_like(first.data)
    for w, img in zip(weights, enhanced):
        acc = acc + w * img.data
    return Image(acc / weights.sum(), units=first.units)


def densify_and_fuse(aff: AffinityField, sparse: SparseMap, conf: ConfidenceMap, rgb: Image,
                     cfg: DensifyConfig | None = None) -> tuple[dict[float, Image], Image]:
    """A frame's `densify_multilevel` levels and their `fuse_levels` fusion,
    enhanced and ranked by certainty; DensifyError passes through."""
    certainty: dict[float, float] = {}
    levels = densify_multilevel(aff, sparse, conf, cfg, certainty)
    return levels, fuse_levels(enhance(list(levels.values()), rgb),
                               [certainty[d] for d in levels] if certainty else None)


# ---------------------------------------------------------------------------
# Patch grid and descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchGrid:
    """Tiling of an image into PATCH-sided cells; remainder pixels join the last row/col."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < PATCH or self.width < PATCH:
            raise FilterError(f"image {self.height}x{self.width} smaller than patch size {PATCH}")

    @property
    def rows(self) -> int:
        return self.height // PATCH

    @property
    def cols(self) -> int:
        return self.width // PATCH

    @property
    def patches(self) -> int:
        return self.rows * self.cols

    def bounds(self, index: int) -> tuple[slice, slice]:
        """Pixel extent of patch `index` (row-major over the grid)."""
        pr, pc = divmod(index, self.cols)
        r0 = pr * PATCH
        c0 = pc * PATCH
        r1 = (pr + 1) * PATCH if pr < self.rows - 1 else self.height
        c1 = (pc + 1) * PATCH if pc < self.cols - 1 else self.width
        return slice(r0, r1), slice(c0, c1)


@dataclass(frozen=True)
class FeatureMatrix:
    """P x D descriptor matrix with unit-norm rows."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=np.float64)
        if mat.ndim != 2:
            raise FilterError("feature matrix must be 2-D")
        norms = np.linalg.norm(mat, axis=1)
        if np.abs(norms - 1.0).max() > 1e-6:
            raise FilterError("feature rows must be L2-normalized")
        object.__setattr__(self, "mat", _freeze(mat))


VOTE_FLOOR_FRAC = 0.2  # gradients below this fraction of the mean don't vote
CELL_GATE_FRAC = 0.05  # cells with less vote mass than this take the uniform histogram


def _cell_spans(length: int, spans: list[slice]) -> tuple[np.ndarray, np.ndarray]:
    """Patch index and cell index (0..DESCRIPTOR_CELLS-1) of every row or column.

    spans[k] is patch k's extent along this axis; its cell edges split it
    evenly, rounded down.
    """
    patch = np.empty(length, dtype=np.int64)
    sub = np.empty(length, dtype=np.int64)
    for k, sl in enumerate(spans):
        edges = np.linspace(sl.start, sl.stop, DESCRIPTOR_CELLS + 1).astype(np.int64)
        patch[sl] = k
        for i in range(DESCRIPTOR_CELLS):
            sub[edges[i] : edges[i + 1]] = i
    return patch, sub


def patch_descriptors(img: Image) -> FeatureMatrix:
    """Per-patch 4x4-cell, 8-bin gradient-orientation histograms on the image's PatchGrid.

    Orientations are taken mod pi, so inverting an image's contrast leaves
    its descriptors unchanged. Votes are square-root-saturated gradient
    magnitudes, soft-binned between the two nearest bin centers; gradients
    below a fraction of the image's mean magnitude count as texture noise
    and do not vote. Each cell histogram is normalized on its own (cells
    with negligible mass take the uniform histogram), so flat and textured
    cells compare structure rather than contrast across modalities. The
    concatenation is L2-normalized; an entirely voteless patch maps to the
    uniform unit vector.
    """
    grid = PatchGrid(*img.shape)
    gray = gray_array(img)
    gy, gx = np.gradient(gray)
    mag = np.hypot(gx, gy)
    mean_mag = float(mag.mean())
    vote = np.where(mag >= VOTE_FLOOR_FRAC * mean_mag, np.sqrt(mag), 0.0)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    bin_width = np.pi / DESCRIPTOR_BINS
    pos = theta / bin_width - 0.5
    lower = np.floor(pos)
    frac = pos - lower
    bin0 = lower.astype(np.int64) % DESCRIPTOR_BINS
    bin1 = (bin0 + 1) % DESCRIPTOR_BINS
    w0 = vote * (1.0 - frac)
    w1 = vote * frac

    # every pixel's cell, numbered patch by patch and row-major inside a
    # patch, as in the descriptor. A cell's histogram sums its pixels in
    # row-major order, exactly as a bincount over the cell alone would.
    n_cells = DESCRIPTOR_CELLS * DESCRIPTOR_CELLS
    row_patch, row_sub = _cell_spans(
        grid.height, [grid.bounds(k * grid.cols)[0] for k in range(grid.rows)]
    )
    col_patch, col_sub = _cell_spans(grid.width, [grid.bounds(k)[1] for k in range(grid.cols)])
    cell_of = ((row_patch[:, None] * grid.cols + col_patch[None, :]) * n_cells
               + row_sub[:, None] * DESCRIPTOR_CELLS + col_sub[None, :]).ravel()
    keys = cell_of * DESCRIPTOR_BINS
    size = grid.patches * n_cells * DESCRIPTOR_BINS
    hist = (
        np.bincount(keys + bin0.ravel(), weights=w0.ravel(), minlength=size)
        + np.bincount(keys + bin1.ravel(), weights=w1.ravel(), minlength=size)
    ).reshape(-1, DESCRIPTOR_BINS)
    hist = 0.25 * np.roll(hist, 1, axis=1) + 0.5 * hist + 0.25 * np.roll(hist, -1, axis=1)
    vote_scale = np.sqrt(mean_mag) if mean_mag > 0 else 0.0
    gates = CELL_GATE_FRAC * np.bincount(cell_of, minlength=len(hist)) * vote_scale

    return FeatureMatrix(_normalize_cells(hist, gates, grid.patches))


def _normalize_cells(hist: np.ndarray, gates: np.ndarray, patches: int) -> np.ndarray:
    """(patches, DESCRIPTOR_DIM) unit rows from the cell histograms, patch by patch.

    Each cell takes its own unit norm, or the uniform histogram where its
    mass does not exceed its gate; an all-zero row would take the uniform
    unit vector. vecdot takes each row's dot product as np.linalg.norm does
    for one vector, so the bits are those of normalizing cell by cell.
    """
    cells = np.full_like(hist, 1.0 / np.sqrt(DESCRIPTOR_BINS))
    voted = hist.sum(axis=1) > gates
    cells[voted] = hist[voted] / np.sqrt(np.vecdot(hist[voted], hist[voted]))[:, None]
    desc = cells.reshape(patches, DESCRIPTOR_DIM)
    rows = np.full_like(desc, 1.0 / np.sqrt(DESCRIPTOR_DIM))
    norm = np.sqrt(np.vecdot(desc, desc))
    live = norm > 1e-12
    rows[live] = desc[live] / norm[live, None]
    return rows


# ---------------------------------------------------------------------------
# Similarity matrix and self-match score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimilarityMatrix:
    """Scaled dot-product patch similarity: A = F_rgb @ F_x.T / tau."""

    a: np.ndarray
    tau: float = TAU

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FilterError("similarity matrix must be square")
        if self.tau <= 0:
            raise FilterError("tau must be positive")
        if np.abs(a).max() > 1.0 / self.tau + 1e-6:
            raise FilterError("similarity entries exceed the 1/tau bound")
        object.__setattr__(self, "a", _freeze(a))


def similarity_matrix(f_rgb: FeatureMatrix, f_x: FeatureMatrix) -> SimilarityMatrix:
    if f_rgb.mat.shape != f_x.mat.shape:
        raise FilterError("feature matrices must have matching shapes")
    return SimilarityMatrix(f_rgb.mat @ f_x.mat.T / TAU, TAU)


def self_match_score(a: SimilarityMatrix) -> float:
    """Alignment score: -Tr(A)/||A||_F + LAMBDA * ||offdiag(A)||_1 / ||A||_F.

    Lower is better aligned. Exposed as an evaluation metric.
    """
    mat = a.a
    fro = float(np.linalg.norm(mat))
    if fro <= 0.0:
        raise FilterError("self-match score undefined for the zero matrix")
    trace = float(np.trace(mat))
    off = float(np.abs(mat).sum() - np.abs(np.diag(mat)).sum())
    return -trace / fro + LAMBDA * off / fro


# ---------------------------------------------------------------------------
# Concentration-based patch rejection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterResult:
    sparse: SparseMap
    conf: ConfidenceMap
    q: float
    threshold: float
    degenerate: bool
    rejected_patches: np.ndarray  # (P,) bool


def concentration_and_filter(xd: Image, a: SimilarityMatrix) -> FilterResult:
    """Reject low-self-similarity patches of a densified image, on its PatchGrid.

    The diagonal's concentration q = Q50/Q99 sets the rejection budget: the
    (1-q)-quantile of the diagonal becomes the threshold, patches strictly
    below it are voided, and survivors carry their min-max-normalized
    diagonal score as per-pixel confidence for re-densification. The
    filtered map shares the values of `xd`.
    """
    if xd.channels != 1:
        raise FilterError("filtering needs a single-channel image")
    grid = PatchGrid(*xd.shape)
    mat = a.a
    if mat.shape[0] != grid.patches:
        raise FilterError("similarity matrix does not match the patch grid")
    d = np.diag(mat).astype(np.float64)
    q99 = quantile(d, 0.99)
    degenerate = q99 <= 0.0
    if degenerate:
        logger.warning("self-match degenerate (Q99 of diagonal <= 0); rejecting nothing")
        q = 1.0
        theta = -np.inf
        rejected_patches = np.zeros(grid.patches, dtype=bool)
    else:
        q = float(np.clip(quantile(d, 0.5) / q99, 0.0, 1.0))
        theta = quantile(d, 1.0 - q)
        rejected_patches = d < theta

    d_min, d_max = float(d.min()), float(d.max())
    span = d_max - d_min
    patch_conf = (d - d_min) / span if span > 1e-12 else np.ones_like(d)

    kept = np.zeros((grid.height, grid.width), dtype=bool)
    conf = np.zeros((grid.height, grid.width))
    for index in range(grid.patches):
        if not rejected_patches[index]:
            rs, cs = grid.bounds(index)
            kept[rs, cs] = True
            conf[rs, cs] = patch_conf[index]
    return FilterResult(
        sparse=SparseMap(xd.data, kept, xd.units),
        conf=ConfidenceMap(np.clip(conf, 0.0, 1.0)),
        q=q,
        threshold=float(theta),
        degenerate=degenerate,
        rejected_patches=rejected_patches,
    )


def fine_densify(
    aff: AffinityField,
    filtered: SparseMap,
    cm: ConfidenceMap,
    cfg: DensifyConfig | None = None,
) -> Image:
    """Single-level re-densification from the filtered map with A-derived confidence.

    `aff` is the frame's `compute_affinities` field, shared with the levels.
    A map with no known pixel raises `init_dense`'s DensifyError.
    """
    cfg = cfg or DensifyConfig()
    return propagate(init_dense(filtered), aff, filtered, cm, cfg)
