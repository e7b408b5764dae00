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

Each level starts from `init_dense`, which gives every void pixel the value
of its nearest known pixel, named by one Euclidean distance transform.

The neighborhood sum is one product with a diagonal-sparse operator per
iteration. `AffinityField` holds the weights only in that layout, built once
per frame and shared by every level, `reach` run and the fine stage:
diagonal k lies at the flat offset of neighbor offset k. scipy's DIA kernel
adds the diagonals into a zeroed sum one at a time in storage order, so each
pixel's sum runs in offset order, as in the scalar reference recurrence, and
the result is the same bit for bit.

A frame's levels, and the `reach` runs that rank them, are independent
recurrences. Called on the main thread of a process that may run on two or
more CPUs, `densify_multilevel` shares them between the caller and one
process-wide helper thread; elsewhere, as on the frame threads of a
multi-worker run, which already fill the cores, the caller runs them all.
Each task makes the calls the serial loop makes and the results are put
together in threshold order, so the output is the same bit for bit either
way. `reach` stops after REACH_ITERATIONS: the fusion reads only the ranks
of the levels' mean reach, and those ranks have settled by then.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import numbers
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.sparse import dia_array

from .errors import DensifyError
from .imgcore import ConfidenceMap, Image, SparseMap, _check_field_types, gray_array

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
    # when False, the recurrence anchors with the known-pixel indicator
    # alone, forcing Cm to 1 (thresholding still applies)
    use_confidence: bool = True
    # propagation has no early stop; not a field, bench/tracer.py's converged count reads it
    tol = 0.0

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        # a JSON list is taken as a tuple
        deltas = tuple(self.thresholds)
        object.__setattr__(self, "thresholds", deltas)
        if not all(isinstance(d, numbers.Real) and not isinstance(d, bool) for d in deltas):
            raise TypeError(f"thresholds must be real numbers, got {deltas!r}")
        if (not deltas or list(deltas) != sorted(set(deltas))
                or not all(0.0 <= d < 1.0 for d in deltas)):
            raise ValueError("thresholds must be non-empty, strictly ascending and within [0, 1)")


class AffinityField:
    """Per-pixel normalized neighbor weights, held as one diagonal-sparse operator.

    `weights[k]` (K, H, W) pairs with `offsets[k]`; out-of-bounds neighbors
    carry weight 0 and each pixel's weights sum to 1. The weights are stored
    only in `operator`: pixel (r, c) has flat index r * W + c, and diagonal
    k, at flat offset dr * W + dc, holds weights[k] shifted to the column it
    multiplies. So `operator @ x` adds w_k * x[p + offset_k] into a zeroed
    sum in offset order at every pixel p of a raveled raster, as the
    reference recurrence does. Distinct offsets keep distinct diagonals only
    when W exceeds the offsets' column span, 2 * max|dc|, so a narrower
    raster is rejected. The field is built in the buffer of `weights` when
    that is a writable C-contiguous float64 array, which it overwrites, so
    no second (K, H, W) copy is held; a caller that needs the weights
    afterwards passes a copy.
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
        if width <= 2 * max((abs(dc) for _, dc in offsets), default=0):
            raise ValueError("raster narrower than the offsets' column span")
        for weight, (dr, dc) in zip(w, offsets):
            rows = slice(max(0, height - dr), None) if dr >= 0 else slice(None, -dr)
            cols = slice(max(0, width - dc), None) if dc >= 0 else slice(None, -dc)
            if weight[rows].any() or weight[:, cols].any():
                raise ValueError("out-of-bounds neighbors must carry weight 0")
        self.offsets = tuple(offsets)
        self.shape = (height, width)
        size = height * width
        data = w.reshape(len(offsets), size)
        flat_offsets = [dr * width + dc for dr, dc in offsets]
        # each row moves from pixel to column order in place; numpy buffers
        # the overlapping copy
        for row, offset in zip(data, flat_offsets):
            cols, pixels = _diagonal_span(offset, size)
            row[cols] = row[pixels]
            row[: cols.start] = 0.0
            row[cols.stop :] = 0.0
        data.flags.writeable = False
        self.operator = dia_array((data, flat_offsets), shape=(size, size))


def _diagonal_span(offset: int, size: int) -> tuple[slice, slice]:
    """Column slice of a diagonal at `offset` and the pixel slice it weighs.

    Entry j of the diagonal multiplies pixel j and weighs the neighbor sum of
    pixel j - offset; a diagonal wholly off the raster spans nothing.
    """
    start, stop = max(0, offset), min(size, size + offset)
    stop = max(start, stop)
    return slice(start, stop), slice(start - offset, stop - offset)


def _overlap(n: int, d: int) -> tuple[slice, slice]:
    """Along an axis of length n, the indices whose neighbor d steps on is in
    bounds, and those neighbors; both empty when |d| >= n."""
    return slice(max(0, -d), max(0, min(n, n - d))), slice(max(0, d), max(0, min(n, n + d)))


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
    # narrower, distinct OFFSETS would share a diagonal of the AffinityField
    if height < 2 or width <= 2 * max(RADII):
        raise DensifyError("guidance image too small for neighborhood affinities")
    weights = np.zeros((len(OFFSETS), height, width))
    inv_color = 1.0 / (2.0 * SIGMA_COLOR**2)
    k = 0
    for r in RADII:
        spatial = np.exp(-(r * r) / (2.0 * SIGMA_SPATIAL**2))
        for a, b in _RING:
            # weighed only where the neighbor is in bounds; zero elsewhere
            rows, n_rows = _overlap(height, r * a)
            cols, n_cols = _overlap(width, r * b)
            diff = g[rows, cols] - g[n_rows, n_cols]
            weights[k, rows, cols] = np.exp(-(diff**2) * inv_color) * spatial
            k += 1
    total = weights.sum(axis=0)
    if total.min() <= 0.0:
        raise DensifyError("pixel with no in-bounds neighbor")
    weights /= total
    return weights


def init_dense(sparse: SparseMap) -> Image:
    """Nearest-anchor fill: each void pixel takes the value of its nearest
    known pixel, and each known pixel keeps its own.

    One Euclidean distance transform names the nearest known pixel of every
    pixel. Which of several equally distant anchors a pixel takes is up to
    the transform, but the choice is deterministic.
    """
    known = sparse.known
    if not known.any():
        raise DensifyError("cannot initialize from an all-void map")
    rows, cols = distance_transform_edt(~known, return_distances=False, return_indices=True)
    return Image(sparse.values[rows, cols], units=sparse.units)


def propagate(
    l0: Image,
    aff: AffinityField,
    sparse: SparseMap,
    cm: ConfidenceMap,
    cfg: DensifyConfig | None = None,
    step_sizes: list[float] | None = None,
) -> Image:
    """Iterate the confidence-aware recurrence for exactly `cfg.iterations` steps.

    Each pixel is anchored by Cs*Cm, where Cs is the known-pixel indicator
    of `sparse` and Cm is `cm`, or 1 when `cfg.use_confidence` is off. With
    Cm identically 1 this degenerates to the plain known-pixel-anchored
    recurrence. Pixels where Cs*Cm == 1 reproduce the known value exactly.
    Appends the max-abs update of every iteration to `step_sizes` if given.
    Raises DensifyError when the result is not finite or leaves the range of
    the start and known values.
    """
    cfg = cfg or DensifyConfig()
    if l0.data.ndim != 2:
        raise DensifyError("propagation operates on single-channel rasters")
    if l0.shape != aff.shape:
        raise DensifyError("raster shape differs from the affinity field's")
    # the anchor becomes `keep` in place, and `pull` is anchor * xm, so that
    # the loop holds no raster beyond those two and its own
    anchor = sparse.known.astype(np.float64)
    if cfg.use_confidence:
        anchor *= cm.conf
    pull = np.where(sparse.known, sparse.values, 0.0).ravel()
    pull *= anchor.ravel()
    keep = np.subtract(1.0, anchor, out=anchor).ravel()
    known_vals = sparse.values[sparse.known]
    lo = min(l0.data.min(), known_vals.min()) if known_vals.size else l0.data.min()
    hi = max(l0.data.max(), known_vals.max()) if known_vals.size else l0.data.max()

    # one product with the affinity operator per iteration: it sums
    # w_k * L[p + offset_k] per pixel in offset order, as the reference does.
    # `current` starts as a view of l0's read-only data; nothing writes into it
    current = l0.data.ravel()
    for _ in range(cfg.iterations):
        nxt = aff.operator @ current
        nxt *= keep
        nxt += pull
        if step_sizes is not None:
            step_sizes.append(float(np.abs(nxt - current).max()))
        current = nxt
    current = current.reshape(aff.shape)
    # written so that a NaN anywhere fails it too
    if not (current.min() >= lo - 1e-9 and current.max() <= hi + 1e-9):
        raise DensifyError("propagation left the convex value bound or was not finite")
    return Image(current, units=l0.units)


def threshold_sparse(sparse: SparseMap, conf: ConfidenceMap, delta: float) -> SparseMap:
    """Keep only known pixels whose confidence reaches delta; the level shares
    the map's values, and goes with the map's own `conf`."""
    return SparseMap(sparse.values, sparse.known & (conf.conf >= delta), sparse.units)


# `reach` runs at most this many iterations. Its mean only ranks the levels,
# and on the benchmark's sequences the ranks after 12 iterations equal those
# after the full 24.
REACH_ITERATIONS = 12


def reach(aff: AffinityField, sparse: SparseMap, conf: ConfidenceMap, cfg: DensifyConfig) -> Image:
    """How strongly confident anchors reach each pixel, in [0, 1].

    The level's own recurrence run on its confidence raster from a zero
    start: anchors are pulled toward their confidence (toward 1 when
    cfg.use_confidence is off) and void pixels start at 0. Within the
    iteration budget, min(REACH_ITERATIONS, cfg.iterations), a pixel scores
    high only near confident anchors, so the score rises with anchor
    confidence and falls with anchor spacing. `fuse_levels` reads only the
    ranks of the levels' mean reach, which a shorter budget than the
    levels' own keeps.
    """
    start = np.where(sparse.known, conf.conf if cfg.use_confidence else 1.0, 0.0)
    cfg = dataclasses.replace(cfg, iterations=min(REACH_ITERATIONS, cfg.iterations))
    return propagate(Image(start), aff, SparseMap(start, sparse.known), conf, cfg)


def _dense_level(
    aff: AffinityField, sparse: SparseMap, conf: ConfidenceMap, cfg: DensifyConfig
) -> Image:
    return propagate(init_dense(sparse), aff, sparse, conf, cfg)


def _mean_reach(
    aff: AffinityField, sparse: SparseMap, conf: ConfidenceMap, cfg: DensifyConfig
) -> float:
    return float(reach(aff, sparse, conf, cfg).data.mean())


# The process-wide helper thread, started on first use.
_helper: ThreadPoolExecutor | None = None


def _helper_usable() -> bool:
    """Whether the caller is the main thread and the process may use 2 CPUs."""
    if threading.current_thread() is not threading.main_thread():
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _inline(task) -> Future:
    """A done future holding what `task()` returned or raised."""
    fut: Future = Future()
    try:
        fut.set_result(task())
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def _run_tasks(tasks: list) -> list:
    """Each zero-argument task's result, in task order.

    With the helper usable, every task is queued on it and the caller walks
    the queue in order, running inline each task it can still cancel; so it
    only ever waits for a task the helper has started, and still finishes
    where the helper thread is gone, as in a forked child. Otherwise the
    caller runs them all. Either way the first failure in task order is
    raised.
    """
    global _helper
    if len(tasks) < 2 or not _helper_usable():
        return [task() for task in tasks]
    if _helper is None:
        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="densify")
    futures = [_helper.submit(task) for task in tasks]
    try:
        done = [_inline(task) if fut.cancel() else fut for task, fut in zip(tasks, futures)]
        return [fut.result() for fut in done]
    finally:
        # so that after an interrupt the helper drops the tasks still queued
        for fut in futures:
            fut.cancel()


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
    kept: dict[float, SparseMap] = {}
    for delta in cfg.thresholds:
        level = threshold_sparse(sparse, conf, delta)
        if level.num_known == 0:
            logger.warning("threshold %.3f keeps no pixels; level omitted", delta)
            continue
        kept[delta] = level
    if not kept:
        raise DensifyError("all confidence levels are empty")
    tasks = [functools.partial(_dense_level, aff, level, conf, cfg) for level in kept.values()]
    ranked = certainty is not None and len(kept) > 1
    if ranked:
        tasks += [functools.partial(_mean_reach, aff, level, conf, cfg) for level in kept.values()]
    results = _run_tasks(tasks)
    out = dict(zip(kept, results))
    if ranked:
        certainty.update(zip(kept, results[len(kept) :]))
    return out
