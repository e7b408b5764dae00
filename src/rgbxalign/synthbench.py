"""Synthetic RGB-X sequence generator with exact ground truth.

Scenes are stacks of textured planes. Camera motion is a per-frame
homography; the X sensor rides at a small baseline with its own per-frame
jitter, so each depth layer maps between the RGB and X views through its own
exact homography. That keeps every ground-truth quantity (aligned X images,
dense correspondence fields, per-layer homographies, area masks) closed-form
while still exhibiting the planar-warp failure mode that motivates the
pipeline: no single homography aligns both layers.

Everything is a deterministic function of (seed, config); regenerating a
bundle from its stored config is bit-identical. A saved bundle stores its
arrays, so loading one reads them back instead of regenerating the scene.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import numbers
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_erosion, gaussian_filter

from .errors import MetricError, RgbxError
from .fuse_filter import PatchGrid
from .imgcore import (
    Image, Mask, _check_field_types, _freeze, _luma, _pixel_grid, bilinear_sample, save_image,
)
from .matching import MatchSet, _apply_homography

logger = logging.getLogger(__name__)

MODALITIES = ("thermal-like", "nir-like", "sar-like")

# Rendered alpha strictly between these bounds marks a layer-boundary fringe
# pixel whose correspondence is ill-defined (mixed content).
_ALPHA_LO = 0.02
_ALPHA_HI = 0.98

# Masked-RMSE budget for one extra bilinear resampling step on our textures.
BILINEAR_BOUND = 0.02

# Fixed scene properties. Texture gain of the value-noise structure, and how
# far the constant X value of a homogeneous blob sits from mid-scale.
_TEXTURE_DENSITY = 1.0
_HOMOGENEOUS_CONTRAST = 1.0
# Per-frame camera motion: rotation (deg), shift (px) and perspective drawn
# uniformly within these ranges; the X sensor's own jitter takes a quarter of
# the rotation and perspective range and _SENSOR_JITTER px of shift.
_ROTATION_RANGE_DEG = 1.0
_SHIFT_RANGE = 3.0
_PERSPECTIVE_RANGE = 1.0e-4
_SENSOR_JITTER = 0.6
# Camera track advance per frame and the RGB->X sensor baseline, in units
# that a layer's disparity scales to pixels.
_TRACK_STEP = 0.6
_SENSOR_BASELINE = 1.0


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    size: int = 256
    frames: int = 10
    modality: str = "thermal-like"
    layers: int = 2
    layer_disparities: tuple[float, ...] = (0.0, 8.0)
    homogeneous_fraction: float = 0.15

    def __post_init__(self) -> None:
        _check_field_types(self)
        # a JSON list or an array is taken as a tuple
        object.__setattr__(self, "layer_disparities", tuple(self.layer_disparities))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.size < 64:
            raise ValueError("scene size must be >= 64")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.layers < 1 or len(self.layer_disparities) != self.layers:
            raise ValueError("layer_disparities must provide one value per layer")
        if not all(isinstance(d, numbers.Real) and math.isfinite(d)
                   for d in self.layer_disparities):
            raise ValueError(f"layer_disparities must be finite, got {self.layer_disparities!r}")
        if self.layers >= 2 and len(set(self.layer_disparities)) != self.layers:
            raise ValueError("layer disparities must be distinct")
        if not 0.0 <= self.homogeneous_fraction < 0.9:
            raise ValueError("homogeneous_fraction out of range")


@dataclass(frozen=True)
class NoiseModel:
    """Controls for degrading oracle matches in experiments."""

    sigma: float = 0.0  # match position noise, px
    outlier_fraction: float = 0.0
    rho: float = 1.0  # confidence fidelity: 1 = confidence tracks correctness
    skip_homogeneous: bool = False  # emulate matchers failing on texture-less areas

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma!r}")
        for frac in (self.outlier_fraction, self.rho):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Homography helpers on (row, col, 1) vectors
# ---------------------------------------------------------------------------


def _translation(dr: float, dc: float) -> np.ndarray:
    return np.array([[1.0, 0.0, dr], [0.0, 1.0, dc], [0.0, 0.0, 1.0]])


def _about_center(core: np.ndarray, center: float) -> np.ndarray:
    return _translation(center, center) @ core @ _translation(-center, -center)


def _camera_homography(
    rng: np.random.Generator,
    rot_deg: float,
    shift: float,
    persp: float,
    center: float,
) -> np.ndarray:
    phi = math.radians(rng.uniform(-rot_deg, rot_deg))
    rot = np.array(
        [[math.cos(phi), -math.sin(phi), 0.0], [math.sin(phi), math.cos(phi), 0.0], [0.0, 0.0, 1.0]]
    )
    p = np.eye(3)
    p[2, 0] = rng.uniform(-persp, persp)
    p[2, 1] = rng.uniform(-persp, persp)
    core = _about_center(p @ rot, center)
    dr, dc = rng.uniform(-shift, shift, size=2)
    return _translation(dr, dc) @ core


# ---------------------------------------------------------------------------
# Procedural textures
# ---------------------------------------------------------------------------


def _upsample(grid: np.ndarray, shape: tuple[int, int], cell: int) -> np.ndarray:
    """Bilinear samples of `grid` at (r / cell, c / cell) for every pixel
    (r, c) of `shape`, bit for bit as `bilinear_sample` gives them.

    The positions form a separable lattice, so the 2x2 support and the
    weights are worked out once per row and once per column.
    """
    def axis(n: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
        pos = np.arange(n) / cell
        lo = np.clip(np.floor(pos), 0, limit - 2).astype(np.int64)
        return lo, np.clip(pos - lo, 0.0, 1.0)

    r0, fr = axis(shape[0], grid.shape[0])
    c0, fc = axis(shape[1], grid.shape[1])
    fr, fc = fr[:, None], fc[None, :]
    top, bot = grid[r0], grid[r0 + 1]
    top = (1.0 - fc) * top[:, c0] + fc * top[:, c0 + 1]
    bot = (1.0 - fc) * bot[:, c0] + fc * bot[:, c0 + 1]
    return (1.0 - fr) * top + fr * bot


def _value_noise(rng: np.random.Generator, shape: tuple[int, int], cell: int, octaves: int = 3) -> np.ndarray:
    height, width = shape
    acc = np.zeros(shape)
    amp = 1.0
    total = 0.0
    for _ in range(octaves):
        # the grid covers every sample's 2x2 support: (n - 1) / cell < n // cell + 1
        grid = rng.random((height // cell + 2, width // cell + 2))
        acc += amp * _upsample(grid, shape, cell)
        total += amp
        amp *= 0.55
        cell = max(3, cell // 2)
    acc /= total
    return _normalized(acc)


def _normalized(arr: np.ndarray) -> np.ndarray:
    lo, hi = arr.min(), arr.max()
    return (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)


@dataclass
class _Layer:
    rgb: np.ndarray  # (Hw, Ww, 3)
    x: np.ndarray  # (Hw, Ww)
    alpha: np.ndarray  # (Hw, Ww) binary


def _disk_mask(shape: tuple[int, int], center: tuple[float, float], radius: float) -> np.ndarray:
    rows = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    return (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= radius * radius


def _build_background(
    rng: np.random.Generator, world: int, cfg: SceneConfig, margin: int
) -> tuple[_Layer, np.ndarray]:
    shape = (world, world)
    # one shared structure field with per-channel gains plus a touch of
    # chroma variation: real scenes' edges are mostly achromatic
    structure = _value_noise(rng, shape, cell=24, octaves=3)
    gains = rng.uniform(0.7, 1.0, size=3)
    channels = []
    for ch in range(3):
        chroma = _value_noise(rng, shape, cell=96, octaves=1)
        base = 0.45 + _TEXTURE_DENSITY * 0.5 * gains[ch] * (structure - 0.5)
        channels.append(np.clip(base + 0.08 * (chroma - 0.5), 0.0, 1.0))
    rgb = np.stack(channels, axis=-1)

    # a few flat geometric shapes break up the noise field
    for _ in range(4):
        center = rng.uniform(margin * 0.5, world - margin * 0.5, size=2)
        radius = rng.uniform(world * 0.04, world * 0.09)
        color = rng.uniform(0.15, 0.85, size=3)
        sel = _disk_mask(shape, (center[0], center[1]), radius)
        rgb[sel] = 0.35 * rgb[sel] + 0.65 * color

    # homogeneous (texture-poor) blobs covering roughly the requested share
    # of the visible window: smooth in RGB, constant in X
    homog = np.zeros(shape, dtype=bool)
    blob_values = np.zeros(shape)
    window_area = cfg.size * cfg.size
    target = cfg.homogeneous_fraction * window_area
    covered = 0.0
    mid = 0.48
    levels = tuple(mid + _HOMOGENEOUS_CONTRAST * (v - mid) for v in (0.08, 0.88, 0.16, 0.8))
    attempt = 0
    while covered < target and attempt < 64:
        radius = rng.uniform(cfg.size * 0.12, cfg.size * 0.22)
        center = rng.uniform(margin + radius, margin + cfg.size - radius, size=2)
        sel = _disk_mask(shape, (center[0], center[1]), radius) & ~homog
        # texture-poor fill: a barely-there ramp, like sky or a bare wall
        gradient = np.clip(
            0.55
            + 0.04 * (np.arange(world)[:, None] - center[0]) / max(radius, 1.0)
            + np.zeros(shape),
            0.0,
            1.0,
        )
        for ch in range(3):
            rgb[:, :, ch][sel] = gradient[sel] * (0.95 + 0.02 * ch)
        blob_values[sel] = levels[attempt % len(levels)]
        homog |= sel
        covered += float(sel.sum())
        attempt += 1

    x = _modality_transform(rng, rgb, cfg, base=0.3, span=0.35)
    x[homog] = blob_values[homog]
    if cfg.modality != "sar-like":
        x = gaussian_filter(x, sigma=1.0, mode="nearest")
    return _Layer(rgb=rgb, x=np.clip(x, 0.0, 1.0), alpha=np.ones(shape)), homog


def _build_foreground(
    rng: np.random.Generator, world: int, cfg: SceneConfig, margin: int, index: int
) -> _Layer:
    shape = (world, world)
    structure = _value_noise(rng, shape, cell=14, octaves=3)
    palette = rng.uniform(0.3, 0.9, size=3)
    rgb = np.clip(
        palette[None, None, :] * (0.55 + _TEXTURE_DENSITY * 0.6 * (structure[:, :, None] - 0.5)),
        0.0,
        1.0,
    )
    x = _modality_transform(rng, rgb, cfg, base=0.72, span=0.22)
    if cfg.modality != "sar-like":
        x = gaussian_filter(x, sigma=1.0, mode="nearest")

    center = (
        world / 2.0 + rng.uniform(-cfg.size * 0.08, cfg.size * 0.08),
        world / 2.0 + rng.uniform(-cfg.size * 0.08, cfg.size * 0.08),
    )
    radius = cfg.size * (0.16 + 0.04 * index)
    alpha = _disk_mask(shape, center, radius).astype(np.float64)
    return _Layer(rgb=rgb, x=np.clip(x, 0.0, 1.0), alpha=alpha)


def _modality_transform(
    rng: np.random.Generator, rgb: np.ndarray, cfg: SceneConfig, base: float, span: float
) -> np.ndarray:
    gray = _luma(rgb)
    if cfg.modality == "thermal-like":
        # monotone remap of a low-passed gray: flattened texture, mild blur
        flat = gaussian_filter(gray, sigma=2.5, mode="nearest")
        return base + span * _normalized(flat)
    if cfg.modality == "nir-like":
        mix = np.clip(0.25 * rgb[:, :, 0] + 0.1 * rgb[:, :, 1] + 0.65 * rgb[:, :, 2], 0.0, 1.0)
        # vegetation brightening with smooth falloff: NIR-bright regions whose
        # boundaries stay soft instead of introducing X-only step edges
        canopy = _value_noise(rng, gray.shape, cell=48, octaves=2)
        boost = 0.22 * np.clip((canopy - 0.55) / 0.2, 0.0, 1.0)
        mix = np.clip(mix + gaussian_filter(boost, sigma=6.0, mode="nearest"), 0.0, 1.0)
        return base + span * _normalized(gaussian_filter(mix, sigma=1.2, mode="nearest"))
    # sar-like: gradient-magnitude base with 4-look gamma speckle
    smooth = gaussian_filter(gray, sigma=1.0, mode="nearest")
    gy, gx = np.gradient(smooth)
    edges = _normalized(gaussian_filter(np.hypot(gx, gy), sigma=1.5, mode="nearest"))
    speckle = rng.gamma(shape=4.0, scale=0.25, size=gray.shape)
    speckle = gaussian_filter(speckle, sigma=1.2, mode="nearest")
    return np.clip((base + span * edges) * (0.7 + 0.3 * speckle), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruthBundle:
    """Per-frame ground truth for a generated sequence.

    maps_rgb[n][l] and maps_x[n][l] are world->frame homographies of layer l
    for the RGB and X sensors; alphas_*[n] stack each layer's rendered
    coverage in the respective view, from which `_layer_map` derives the
    visible layer index per RGB pixel.
    """

    cfg: SceneConfig
    rgb: tuple[Image, ...]
    x_gt: tuple[Image, ...]
    x_raw: tuple[Image, ...]
    area_masks: tuple[Mask, ...]
    alphas_rgb: tuple[np.ndarray, ...]
    alphas_x: tuple[np.ndarray, ...]
    maps_rgb: tuple[tuple[np.ndarray, ...], ...]
    maps_x: tuple[tuple[np.ndarray, ...], ...]

    @property
    def frames(self) -> int:
        return len(self.rgb)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rgb[0].shape

    @property
    def frame_ids(self) -> tuple[str, ...]:
        """File stem of each frame, in frame order (0000, 0001, ...)."""
        return tuple(f"{n:04d}" for n in range(self.frames))

    @functools.cached_property
    def frame_index(self) -> dict[str, int]:
        """Frame number of each frame id."""
        return {fid: n for n, fid in enumerate(self.frame_ids)}

    def foreground_mask(self, frame: int) -> Mask:
        return Mask(_layer_map(self.alphas_rgb[frame]) >= 1)

    @functools.cached_property
    def _pixels(self) -> np.ndarray:
        """(row, col) of every pixel in row-major order, as (H*W, 2) floats."""
        return _freeze(_pixel_grid(*self.shape))

    def _field(
        self,
        i: int,
        maps_dst: tuple[tuple[np.ndarray, ...], ...],
        alphas_dst: tuple[np.ndarray, ...],
        j: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        height, width = self.shape
        pts = self._pixels
        coords = np.zeros((height * width, 2))
        layer_map = _layer_map(self.alphas_rgb[i]).ravel()
        for l in range(self.cfg.layers):
            sel = layer_map == l
            if not sel.any():
                continue
            h = maps_dst[j][l] @ np.linalg.inv(self.maps_rgb[i][l])
            coords[sel] = _apply_homography(h, pts[sel])

        valid = np.ones(height * width, dtype=bool)
        # exclude layer-boundary fringes in the source view
        for l in range(1, self.cfg.layers):
            a = self.alphas_rgb[i][l].ravel()
            valid &= ~((a > _ALPHA_LO) & (a < _ALPHA_HI))
        # destination bounds
        valid &= (
            (coords[:, 0] >= 0.0)
            & (coords[:, 0] <= height - 1)
            & (coords[:, 1] >= 0.0)
            & (coords[:, 1] <= width - 1)
        )
        # occlusion / fringe at the destination
        for l in range(self.cfg.layers):
            sel = (layer_map == l) & valid
            if not sel.any():
                continue
            idx = np.flatnonzero(sel)
            rows, cols = coords[idx, 0], coords[idx, 1]
            for m in range(l + 1, self.cfg.layers):
                a, _ = bilinear_sample(alphas_dst[j][m], rows, cols)
                valid[idx[a > _ALPHA_LO]] = False
            # every render gives layer 0 alpha 1, so an in-bounds pixel of it
            # cannot fall on its own layer's fringe
            if l > 0:
                a_self, _ = bilinear_sample(alphas_dst[j][l], rows, cols)
                valid[idx[a_self < _ALPHA_HI]] = False
        return coords.reshape(height, width, 2), valid.reshape(height, width)

    def correspondence(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Subpixel coords in X frame j for each RGB-frame-i pixel, plus validity."""
        return self._field(i, self.maps_x, self.alphas_x, j)

    def rgb_correspondence(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Subpixel coords in RGB frame j for each RGB-frame-i pixel, plus validity."""
        return self._field(i, self.maps_rgb, self.alphas_rgb, j)


def _layer_map(alphas: np.ndarray) -> np.ndarray:
    """Per pixel of a (layers, H, W) alpha stack, the front-most layer whose
    alpha exceeds 0.5, else 0 (the opaque background)."""
    out = np.zeros(alphas.shape[1:], dtype=np.int64)
    for l in range(1, len(alphas)):
        out[alphas[l] > 0.5] = l
    return out


def _layer_stacks(
    layers: list[_Layer], homog_world: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per layer, the world rasters each view samples, stacked so that one
    bilinear sample per layer serves a whole view.

    The RGB view takes (r, g, b, x, alpha); layer 0 is opaque, so its alpha
    slot carries the homogeneous-region coverage instead. The X view takes
    (x, alpha), layer 0 just x.
    """
    rgb_view = [
        np.dstack([layer.rgb, layer.x, homog_world if l == 0 else layer.alpha])
        for l, layer in enumerate(layers)
    ]
    x_view = [layers[0].x[:, :, None]] + [np.dstack([layer.x, layer.alpha]) for layer in layers[1:]]
    return rgb_view, x_view


def _sample_view(
    stacks: list[np.ndarray], maps: tuple[np.ndarray, ...], pts: np.ndarray
) -> list[np.ndarray]:
    """Sample each layer's stack at the texture coordinates of every pixel
    of a view, given the view's world->frame homography per layer."""
    out = []
    for l, (stack, h) in enumerate(zip(stacks, maps)):
        tex = _apply_homography(np.linalg.inv(h), pts)
        values, valid = bilinear_sample(stack, tex[:, 0], tex[:, 1])
        # the opaque background must cover the whole view
        if l == 0 and not valid.all():
            raise RgbxError("world margin insufficient for configured motion")
        out.append(values)
    return out


def _render_frame(
    stacks_rgb: list[np.ndarray],
    stacks_x: list[np.ndarray],
    maps_rgb: tuple[np.ndarray, ...],
    maps_x: tuple[np.ndarray, ...],
    pts: np.ndarray,
    size: int,
) -> tuple[np.ndarray, ...]:
    """Composite one frame's layers back-to-front.

    Returns the RGB image, the aligned and the raw X image, the per-layer
    alpha stacks of the RGB and the X view, and the homogeneous-region
    coverage of the RGB view.
    """
    s_rgb = _sample_view(stacks_rgb, maps_rgb, pts)
    s_x = _sample_view(stacks_x, maps_x, pts)
    rgb, x_gt, homog = s_rgb[0][:, :3], s_rgb[0][:, 3], s_rgb[0][:, 4]
    x_raw = s_x[0][:, 0]
    a_rgb = np.zeros((len(s_rgb), size, size))
    a_x = np.zeros((len(s_x), size, size))
    a_rgb[0] = a_x[0] = 1.0
    for l in range(1, len(s_rgb)):
        a = s_rgb[l][:, 4]
        a_rgb[l] = a.reshape(size, size)
        rgb = (1.0 - a[:, None]) * rgb + a[:, None] * s_rgb[l][:, :3]
        x_gt = (1.0 - a) * x_gt + a * s_rgb[l][:, 3]
        a = s_x[l][:, 1]
        a_x[l] = a.reshape(size, size)
        x_raw = (1.0 - a) * x_raw + a * s_x[l][:, 0]
    image = (size, size)
    return (rgb.reshape(*image, 3), x_gt.reshape(image), x_raw.reshape(image),
            a_rgb, a_x, homog.reshape(image))


def _build_scene(
    cfg: SceneConfig, rng: np.random.Generator
) -> tuple[list[_Layer], np.ndarray, list[tuple[np.ndarray, ...]], list[tuple[np.ndarray, ...]]]:
    """World layers, the homogeneous-region world mask, and each frame's
    world->frame homography per layer for the RGB and the X sensor."""
    size = cfg.size
    rho = np.array(cfg.layer_disparities) / _SENSOR_BASELINE
    u = (np.arange(cfg.frames) - (cfg.frames - 1) / 2.0) * _TRACK_STEP

    margin = int(
        math.ceil(
            _SHIFT_RANGE
            + math.sin(math.radians(_ROTATION_RANGE_DEG)) * size * 0.75
            + _PERSPECTIVE_RANGE * (size / 2.0) ** 2
            + np.abs(rho).max() * (np.abs(u).max() + abs(_SENSOR_BASELINE))
            + _SENSOR_JITTER
            + 8.0
        )
    )
    world = size + 2 * margin

    background, homog_world = _build_background(rng, world, cfg, margin)
    layers = [background]
    for l in range(1, cfg.layers):
        layers.append(_build_foreground(rng, world, cfg, margin, l))

    center = size / 2.0
    to_frame = _translation(-margin, -margin)
    g_list = []
    q_list = []
    for _ in range(cfg.frames):
        g_list.append(
            _camera_homography(rng, _ROTATION_RANGE_DEG, _SHIFT_RANGE, _PERSPECTIVE_RANGE, center)
            @ to_frame
        )
        q_list.append(
            _camera_homography(
                rng,
                _ROTATION_RANGE_DEG * 0.25,
                _SENSOR_JITTER,
                _PERSPECTIVE_RANGE * 0.25,
                center,
            )
        )

    maps_rgb: list[tuple[np.ndarray, ...]] = []
    maps_x: list[tuple[np.ndarray, ...]] = []
    for n in range(cfg.frames):
        per_rgb = []
        per_x = []
        for l in range(cfg.layers):
            track = _translation(0.0, rho[l] * u[n])
            track_x = _translation(0.0, rho[l] * (u[n] + _SENSOR_BASELINE))
            per_rgb.append(g_list[n] @ track)
            per_x.append(q_list[n] @ g_list[n] @ track_x)
        maps_rgb.append(tuple(per_rgb))
        maps_x.append(tuple(per_x))
    return layers, homog_world, maps_rgb, maps_x


def gen_sequence(cfg: SceneConfig) -> GroundTruthBundle:
    """Generate a seeded scene bundle; bit-identical for identical configs."""
    rng = np.random.default_rng(np.random.SeedSequence((0x5CE11E, cfg.seed)))
    size = cfg.size
    layers, homog_world, maps_rgb, maps_x = _build_scene(cfg, rng)
    stacks_rgb, stacks_x = _layer_stacks(layers, homog_world.astype(np.float64))
    pts = _pixel_grid(size, size)

    rgb_frames = []
    x_gt_frames = []
    x_raw_frames = []
    area_masks = []
    alphas_rgb = []
    alphas_x = []
    for n in range(cfg.frames):
        rgb_img, x_gt_img, x_raw_img, a_rgb, a_x, homog = _render_frame(
            stacks_rgb, stacks_x, maps_rgb[n], maps_x[n], pts, size
        )
        rgb_frames.append(Image(np.clip(rgb_img, 0.0, 1.0)))
        x_gt_frames.append(Image(np.clip(x_gt_img, 0.0, 1.0)))
        x_raw_frames.append(Image(np.clip(x_raw_img, 0.0, 1.0)))
        alphas_rgb.append(a_rgb)
        alphas_x.append(a_x)

        area = (homog > 0.5) & (_layer_map(a_rgb) == 0)
        # erode away from region boundaries, as a careful mask provider
        # would: warped values right at a contrast step are unreliable seeds
        area = binary_erosion(area, iterations=2)
        area_masks.append(Mask(area))

    bundle = GroundTruthBundle(
        cfg=cfg,
        rgb=tuple(rgb_frames),
        x_gt=tuple(x_gt_frames),
        x_raw=tuple(x_raw_frames),
        area_masks=tuple(area_masks),
        alphas_rgb=tuple(alphas_rgb),
        alphas_x=tuple(alphas_x),
        maps_rgb=tuple(maps_rgb),
        maps_x=tuple(maps_x),
    )
    _assert_internal_consistency(bundle)
    return bundle


def _assert_internal_consistency(bundle: GroundTruthBundle) -> None:
    """Warping raw X through the GT correspondences must reproduce aligned X."""
    for n in (0, bundle.frames - 1):
        coords, valid = bundle.correspondence(n, n)
        sampled, ok = bilinear_sample(bundle.x_raw[n].data, coords[:, :, 0], coords[:, :, 1])
        sel = valid & ok
        if not sel.any():
            raise RgbxError("ground-truth correspondence field is empty")
        rmse = float(np.sqrt(np.mean((sampled[sel] - bundle.x_gt[n].data[sel]) ** 2)))
        if rmse > BILINEAR_BOUND:
            raise RgbxError(f"bundle inconsistency: frame {n} GT warp RMSE {rmse:.4f}")


# Share of a frame's patches that `corrupt_patches` corrupts
CORRUPT_FRACTION = 0.1


def corrupt_patches(img: Image, seed: int) -> tuple[Image, Mask]:
    """Replace ceil(CORRUPT_FRACTION * P) of the image's P patches with
    streak artifacts at a random orientation; returns the corrupted image
    and the mask of the corrupted patches.

    Emulates badly densified patches: propagation failures show up as
    coherent ripples or streaks of plausible magnitude but wrong structure
    and wrong values, which is what the self-matching stage must catch.
    Patches are drawn from the textured ones (std > 0.02) when there are
    enough: corrupting a flat patch with other flat content is undetectable
    by any structural validator, and barely corruption.
    """
    rng = np.random.default_rng(seed)
    height, width = img.shape
    grid = PatchGrid(height, width)
    k = math.ceil(CORRUPT_FRACTION * grid.patches)
    stds = np.array([img.data[grid.bounds(i)].std() for i in range(grid.patches)])
    textured = np.flatnonzero(stds > 0.02)
    pool = textured if len(textured) >= k else np.arange(grid.patches)
    bits = np.zeros((height, width), dtype=bool)
    for idx in pool[rng.choice(len(pool), size=k, replace=False)]:
        bits[grid.bounds(int(idx))] = True

    phi = rng.uniform(0.0, np.pi)
    period = rng.uniform(5.0, 9.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    wave = np.sin(2.0 * np.pi * (rows * np.cos(phi) + cols * np.sin(phi)) / period + phase)
    lo, hi = float(img.data.min()), float(img.data.max())
    mid = lo + rng.uniform(0.35, 0.65) * (hi - lo)
    wrong = np.clip(mid + 0.35 * (hi - lo) * wave, lo, hi)
    return Image(np.where(bits, wrong, img.data), units=img.units), Mask(bits)


# ---------------------------------------------------------------------------
# Oracle matcher
# ---------------------------------------------------------------------------


# an outlier whose redraws land this many times within `min_dist` of its
# truth keeps its inlier position
_REDRAW_TRIES = 64


def _redraw_outliers(
    rng: np.random.Generator, truth: np.ndarray, shape: tuple[int, int], min_dist: float
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform positions at least `min_dist` from each row of `truth`.

    Redraws from `rng` one (row, col) pair per draw: row after row of
    `truth`, each taking draws until one lands far enough or _REDRAW_TRIES
    have missed. Each round draws one pair per row still pending and hands
    them out in order, so `rng` ends where a one-at-a-time loop leaves it
    and the result does not depend on how the draws are batched. Returns
    the positions and the mask of rows that got one.
    """
    height, width = shape
    drawn = np.zeros_like(truth)
    ok = np.zeros(len(truth), dtype=bool)
    targets = truth.tolist()
    row = missed = 0  # the row taking draws, and its misses so far
    while row < len(truth):
        for r, c in rng.uniform(0.0, (height - 1.0, width - 1.0), (len(truth) - row, 2)).tolist():
            tr, tc = targets[row]
            dr, dc = r - tr, c - tc
            if math.sqrt(dr * dr + dc * dc) >= min_dist:
                drawn[row], ok[row] = (r, c), True
            else:
                missed += 1
                if missed < _REDRAW_TRIES:
                    continue
            row, missed = row + 1, 0
    return drawn, ok


def oracle_match(
    bundle: GroundTruthBundle,
    pair: tuple[int, int],
    noise: NoiseModel,
    count: int,
    seed: int = 0,
) -> MatchSet:
    """Sample ground-truth correspondences with a controlled degradation.

    Inlier positions get component-truncated Gaussian noise (3 sigma);
    outliers are resampled uniformly at least `max(8, 3*sigma*sqrt(2) + 2)`
    pixels from the truth, so perfect-fidelity confidence separates them.
    Confidence follows a logistic correctness margin blended with seeded
    uniform noise: rho = 1 reports the margin exactly, smaller rho degrades
    the correlation between confidence and correctness. The set is named
    by the pair's `frame_ids`.
    """
    i, j = pair
    if not (0 <= i < bundle.frames and 0 <= j < bundle.frames):
        raise ValueError(f"frame pair {pair} out of range")
    rgb_frame, x_frame = bundle.frame_ids[i], bundle.frame_ids[j]
    rng = np.random.default_rng(np.random.SeedSequence((0x0AC1E, bundle.cfg.seed, i, j, seed)))
    coords, valid = bundle.correspondence(i, j)
    eligible = valid.copy()
    if noise.skip_homogeneous:
        eligible &= ~bundle.area_masks[i].bits
    candidates = np.argwhere(eligible)
    if len(candidates) == 0:
        return MatchSet(rgb_frame, x_frame)
    k = min(count, len(candidates))
    chosen = candidates[rng.choice(len(candidates), size=k, replace=False)]
    p_rgb = chosen.astype(np.float64)
    truth = coords[chosen[:, 0], chosen[:, 1]]

    height, width = bundle.shape
    is_outlier = rng.random(k) < noise.outlier_fraction
    eps = rng.normal(0.0, noise.sigma, size=(k, 2)) if noise.sigma > 0 else np.zeros((k, 2))
    eps = np.clip(eps, -3.0 * noise.sigma, 3.0 * noise.sigma)
    p_x = truth + eps
    p_x[:, 0] = np.clip(p_x[:, 0], 0.0, height - 1)
    p_x[:, 1] = np.clip(p_x[:, 1], 0.0, width - 1)

    min_dist = max(8.0, 3.0 * noise.sigma * math.sqrt(2.0) + 2.0)
    out_idx = np.flatnonzero(is_outlier)
    drawn, ok = _redraw_outliers(rng, truth[out_idx], bundle.shape, min_dist)
    p_x[out_idx[ok]] = drawn[ok]

    err = np.linalg.norm(p_x - truth, axis=1)
    margin = 2.0 / (1.0 + np.exp(err / 2.0))
    # multiplier equals 1 at rho=1 (confidence reports the margin exactly).
    # Smaller rho mixes two failure modes of real matchers: a hesitant tail
    # (slightly inflated confidence, leaking just over low thresholds) and
    # occasional confidently-wrong reports (repetitive structure), which
    # pass every threshold
    eta = rng.random(k)
    mult = 1.0 + (1.0 - noise.rho) * (1.5 * eta - 0.9)
    confident_wrong = rng.random(k) < 0.9 * (1.0 - noise.rho)
    mult = np.where(confident_wrong, rng.uniform(0.2, 0.45, size=k), mult)
    conf = np.clip(1.0 - (1.0 - margin) * mult, 0.0, 1.0)
    return MatchSet(rgb_frame, x_frame, p_rgb, p_x, conf)


# ---------------------------------------------------------------------------
# Multi-view consistency metric (ground-truth-warp RMSE between frame pairs)
# ---------------------------------------------------------------------------


def consistency_metric(x_outputs: list[Image], bundle: GroundTruthBundle, start: int = 0) -> float:
    """Mean masked RMSE between adjacent frames after GT warping.

    x_outputs[k] is the output for bundle frame start + k. For each adjacent
    pair, frame i's output is warped into frame i+1's geometry through the
    ground-truth correspondence field and compared to frame i+1's output
    where the correspondence is valid. Lower is more multi-view consistent.
    """
    if len(x_outputs) < 2:
        raise MetricError("consistency metric needs at least two frames")
    if start < 0 or start + len(x_outputs) > bundle.frames:
        raise MetricError("more outputs than bundle frames")
    vals = []
    for j in range(1, len(x_outputs)):
        i = j - 1
        coords, valid = bundle.rgb_correspondence(start + j, start + i)
        sampled, ok = bilinear_sample(x_outputs[i].data, coords[:, :, 0], coords[:, :, 1])
        sel = valid & ok
        if not sel.any():
            continue
        diff = sampled[sel] - x_outputs[j].data[sel]
        vals.append(float(np.sqrt(np.mean(diff * diff))))
    if not vals:
        raise MetricError("no valid correspondences between any adjacent frames")
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Bundle persistence
# ---------------------------------------------------------------------------


# The ground-truth arrays of a bundle: one npz member per field, the frames
# stacked along its first axis
_SCENE_FILE = "scene.npz"


def _scene_layout(cfg: SceneConfig) -> dict[str, tuple[tuple[int, ...], type]]:
    """Shape and dtype of one frame's array of every bundle field."""
    size, layers = cfg.size, cfg.layers
    return {
        "rgb": ((size, size, 3), np.float64),
        "x_gt": ((size, size), np.float64),
        "x_raw": ((size, size), np.float64),
        "area_masks": ((size, size), np.bool_),
        "alphas_rgb": ((layers, size, size), np.float64),
        "alphas_x": ((layers, size, size), np.float64),
        "maps_rgb": ((layers, 3, 3), np.float64),
        "maps_x": ((layers, 3, 3), np.float64),
    }


def _frame_array(value: Image | Mask | np.ndarray | tuple[np.ndarray, ...]) -> np.ndarray:
    if isinstance(value, Image):
        return value.data
    if isinstance(value, Mask):
        return value.bits
    return np.stack(value) if isinstance(value, tuple) else value


def save_bundle(bundle: GroundTruthBundle, out_dir: str | Path) -> None:
    """Persist frames and ground truth.

    The run's inputs go to rgb/, x_raw/ and masks/ as PNG. Everything else
    goes to gt/scene.npz, which marks the bundle and is what `load_bundle`
    reads back: the scene config as a JSON `config` member, and every array
    of the bundle, with its dtype, as one member per field with the frames
    stacked.
    """
    out = Path(out_dir)
    for sub in ("rgb", "x_raw", "masks", "gt"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for n, fid in enumerate(bundle.frame_ids):
        save_image(bundle.rgb[n], out / "rgb" / f"{fid}.png", bit_depth=8)
        save_image(bundle.x_raw[n], out / "x_raw" / f"{fid}.png", bit_depth=16)
        save_image(
            Image(bundle.area_masks[n].bits.astype(np.float64)),
            out / "masks" / f"{fid}.png",
            bit_depth=8,
        )
    members = {"config": np.array(json.dumps(asdict(bundle.cfg)))}
    for name in _scene_layout(bundle.cfg):
        members[name] = np.stack([_frame_array(value) for value in getattr(bundle, name)])
    np.savez(out / "gt" / _SCENE_FILE, **members)


def _scene_config(raw: dict, source: Path) -> SceneConfig:
    if not isinstance(raw, dict):
        raise RgbxError(f"{source}: scene config is not a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(SceneConfig)})
    if unknown:
        raise RgbxError(
            f"{source}: unknown scene config keys {unknown}; "
            "regenerate the bundle with `rgbxalign synth`"
        )
    try:
        return SceneConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise RgbxError(f"{source}: bad scene config ({exc})") from exc


def load_bundle(in_dir: str | Path) -> GroundTruthBundle:
    """Load a bundle written by `save_bundle`.

    gt/scene.npz marks the bundle. It must hold a scene config and arrays of
    the shapes and dtypes that config implies, else RgbxError; files that
    older versions wrote beside it (gt/meta, gt/homographies.txt, x_gt/)
    are ignored.

    The most recently loaded bundle is kept, keyed on the scene file (path,
    size, modification time), and shared, so a run and its evaluation (or
    several runs over one bundle) read it once; all of its arrays are
    read-only.
    """
    scene = Path(in_dir) / "gt" / _SCENE_FILE
    if not scene.exists():
        raise RgbxError(
            f"{in_dir}: not a benchmark bundle (missing gt/{_SCENE_FILE}); "
            "generate one with `rgbxalign synth`"
        )
    stat = scene.stat()
    return _load_scene(scene.resolve(), stat.st_size, stat.st_mtime_ns)


@functools.lru_cache(maxsize=1)
def _load_scene(path: Path, _size: int, _mtime_ns: int) -> GroundTruthBundle:
    try:
        with np.load(path) as npz:
            if "config" not in npz.files:
                raise RgbxError(
                    f"{path}: no scene config member; regenerate the bundle with `rgbxalign synth`"
                )
            cfg = _scene_config(json.loads(str(npz["config"])), path)
            layout = _scene_layout(cfg)
            if set(npz.files) != {"config", *layout}:
                raise RgbxError(
                    f"{path}: members {sorted(npz.files)} do not match its scene config; "
                    "regenerate the bundle with `rgbxalign synth`"
                )
            stacks = {name: npz[name] for name in layout}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise RgbxError(f"{path}: unreadable scene file ({exc})") from exc
    arrays = {}
    for name, (shape, dtype) in layout.items():
        stack = stacks.pop(name)
        if stack.shape != (cfg.frames, *shape) or stack.dtype != dtype:
            raise RgbxError(
                f"{path}: {name} array is {stack.dtype}{list(stack.shape)}, "
                f"its scene config implies {np.dtype(dtype)}{[cfg.frames, *shape]}"
            )
        # Each frame gets its own buffer, copied out of the stack, which is
        # then freed. Besides keeping frames independent, this leaves
        # glibc's allocator reusing freed heap pages in the run and in
        # evaluate_run, as a scene regenerated in-process did. Read frame by
        # frame instead, each evaluate_run call after a two-worker run at
        # 512 px faulted in ~26k fresh pages and took 0.07 s longer.
        arrays[name] = tuple(_freeze(np.array(frame)) for frame in stack)

    bundle = GroundTruthBundle(
        cfg=cfg,
        rgb=tuple(Image(data) for data in arrays["rgb"]),
        x_gt=tuple(Image(data) for data in arrays["x_gt"]),
        x_raw=tuple(Image(data) for data in arrays["x_raw"]),
        area_masks=tuple(Mask(bits) for bits in arrays["area_masks"]),
        alphas_rgb=arrays["alphas_rgb"],
        alphas_x=arrays["alphas_x"],
        maps_rgb=tuple(tuple(maps) for maps in arrays["maps_rgb"]),
        maps_x=tuple(tuple(maps) for maps in arrays["maps_x"]),
    )
    _assert_internal_consistency(bundle)
    return bundle
