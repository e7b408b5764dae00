"""Synthetic RGB-X sequence generator with exact ground truth.

Scenes are stacks of textured planes. Camera motion is a per-frame
homography; the X sensor rides at a small baseline with its own per-frame
jitter, so each depth layer maps between the RGB and X views through its own
exact homography. That keeps every ground-truth quantity (aligned X images,
dense correspondence fields, per-layer homographies, area masks) closed-form
while still exhibiting the planar-warp failure mode that motivates the
pipeline: no single homography aligns both layers.

Everything is a deterministic function of (seed, config); regenerating a
bundle from its echoed config is bit-identical.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_erosion, gaussian_filter

from .errors import MetricError, RgbxError
from .fuse_filter import PatchGrid
from .imgcore import Image, Mask, _luma, bilinear_sample, save_image
from .matching import MatchSet, _apply_homography

logger = logging.getLogger(__name__)

MODALITIES = ("thermal-like", "nir-like", "sar-like")

# Rendered alpha strictly between these bounds marks a layer-boundary fringe
# pixel whose correspondence is ill-defined (mixed content).
_ALPHA_LO = 0.02
_ALPHA_HI = 0.98

# Masked-RMSE budget for one extra bilinear resampling step on our textures.
BILINEAR_BOUND = 0.02


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    size: int = 256
    frames: int = 10
    modality: str = "thermal-like"
    layers: int = 2
    layer_disparities: tuple[float, ...] = (0.0, 8.0)
    texture_density: float = 1.0
    homogeneous_fraction: float = 0.15
    homogeneous_contrast: float = 1.0  # how far blob X values sit from mid-scale
    rotation_range_deg: float = 1.0
    shift_range: float = 3.0
    perspective_range: float = 1.0e-4
    track_step: float = 0.6
    sensor_baseline: float = 1.0
    sensor_jitter: float = 0.6
    corrupt_patch_fraction: float = 0.0
    patch_size: int = 32

    def __post_init__(self) -> None:
        if self.size < 64:
            raise ValueError("scene size must be >= 64")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.layers < 1 or len(self.layer_disparities) != self.layers:
            raise ValueError("layer_disparities must provide one value per layer")
        if self.layers >= 2 and len(set(self.layer_disparities)) != self.layers:
            raise ValueError("layer disparities must be distinct")
        if not 0.0 <= self.homogeneous_fraction < 0.9:
            raise ValueError("homogeneous_fraction out of range")
        if not 0.0 <= self.homogeneous_contrast <= 1.0:
            raise ValueError("homogeneous_contrast out of range")
        if not 1 <= self.patch_size <= self.size:
            raise ValueError("patch_size must lie in [1, size]")


@dataclass(frozen=True)
class NoiseModel:
    """Controls for degrading oracle matches in experiments."""

    sigma: float = 0.0  # match position noise, px
    outlier_fraction: float = 0.0
    rho: float = 1.0  # confidence fidelity: 1 = confidence tracks correctness
    skip_homogeneous: bool = False  # emulate matchers failing on texture-less areas
    # real matchers go wrong mostly where texture is poor: scale the outlier
    # probability inside the area-mask regions by this factor, renormalizing
    # outside so the overall fraction stays as configured
    homogeneous_outlier_boost: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        for frac in (self.outlier_fraction, self.rho):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        if self.homogeneous_outlier_boost < 1.0:
            raise ValueError("homogeneous_outlier_boost must be >= 1")


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


def _value_noise(rng: np.random.Generator, shape: tuple[int, int], cell: int, octaves: int = 3) -> np.ndarray:
    height, width = shape
    acc = np.zeros(shape)
    amp = 1.0
    total = 0.0
    for _ in range(octaves):
        grid = rng.random((height // cell + 2, width // cell + 2))
        rows = np.repeat(np.arange(height) / cell, width)
        cols = np.tile(np.arange(width) / cell, height)
        up, _ = bilinear_sample(grid, rows, cols)
        acc += amp * up.reshape(shape)
        total += amp
        amp *= 0.55
        cell = max(3, cell // 2)
    acc /= total
    lo, hi = acc.min(), acc.max()
    return (acc - lo) / (hi - lo) if hi > lo else np.zeros(shape)


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
    density = cfg.texture_density
    shape = (world, world)
    # one shared structure field with per-channel gains plus a touch of
    # chroma variation: real scenes' edges are mostly achromatic
    structure = _value_noise(rng, shape, cell=24, octaves=3)
    gains = rng.uniform(0.7, 1.0, size=3)
    channels = []
    for ch in range(3):
        chroma = _value_noise(rng, shape, cell=96, octaves=1)
        base = 0.45 + density * 0.5 * gains[ch] * (structure - 0.5)
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
    levels = tuple(mid + cfg.homogeneous_contrast * (v - mid) for v in (0.08, 0.88, 0.16, 0.8))
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
        palette[None, None, :] * (0.55 + cfg.texture_density * 0.6 * (structure[:, :, None] - 0.5)),
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
    coverage in the respective view; layer_maps[n] holds the visible layer
    index per RGB pixel.
    """

    cfg: SceneConfig
    rgb: tuple[Image, ...]
    x_gt: tuple[Image, ...]
    x_raw: tuple[Image, ...]
    area_masks: tuple[Mask, ...]
    layer_maps: tuple[np.ndarray, ...]
    alphas_rgb: tuple[np.ndarray, ...]
    alphas_x: tuple[np.ndarray, ...]
    maps_rgb: tuple[tuple[np.ndarray, ...], ...]
    maps_x: tuple[tuple[np.ndarray, ...], ...]
    corruption_masks: tuple[Mask, ...] | None = None

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

    def foreground_mask(self, frame: int) -> Mask:
        return Mask(self.layer_maps[frame] >= 1)

    def layer_homographies(self, frame: int) -> list[np.ndarray]:
        """RGB-frame -> X-frame homography of each layer for one frame."""
        out = []
        for l in range(self.cfg.layers):
            h = self.maps_x[frame][l] @ np.linalg.inv(self.maps_rgb[frame][l])
            out.append(h / h[2, 2])
        return out

    def _field(
        self,
        i: int,
        maps_dst: tuple[tuple[np.ndarray, ...], ...],
        alphas_dst: tuple[np.ndarray, ...],
        j: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        height, width = self.shape
        rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
        pts = np.column_stack([rows.ravel(), cols.ravel()]).astype(np.float64)
        coords = np.zeros((height * width, 2))
        layer_map = self.layer_maps[i].ravel()
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
            for m in range(l + 1, self.cfg.layers):
                a, _ = bilinear_sample(alphas_dst[j][m], coords[sel, 0], coords[sel, 1])
                keep = a <= _ALPHA_LO
                idx = np.flatnonzero(sel)
                valid[idx[~keep]] = False
            a_self, _ = bilinear_sample(alphas_dst[j][l], coords[sel, 0], coords[sel, 1])
            idx = np.flatnonzero(sel)
            valid[idx[a_self < _ALPHA_HI]] = False
        return coords.reshape(height, width, 2), valid.reshape(height, width)

    def correspondence(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Subpixel coords in X frame j for each RGB-frame-i pixel, plus validity."""
        return self._field(i, self.maps_x, self.alphas_x, j)

    def rgb_correspondence(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Subpixel coords in RGB frame j for each RGB-frame-i pixel, plus validity."""
        return self._field(i, self.maps_rgb, self.alphas_rgb, j)


def _render(
    layers: list[_Layer],
    maps: list[np.ndarray],
    size: int,
    channels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite layers back-to-front; returns (image, per-layer alpha stack)."""
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    pts = np.column_stack([rows.ravel(), cols.ravel()]).astype(np.float64)
    out = np.zeros((size * size, channels) if channels > 1 else (size * size,))
    alphas = np.zeros((len(layers), size, size))
    for l, (layer, h) in enumerate(zip(layers, maps)):
        tex_pts = _apply_homography(np.linalg.inv(h), pts)
        content = layer.rgb if channels == 3 else layer.x
        values, valid = bilinear_sample(content, tex_pts[:, 0], tex_pts[:, 1])
        if l == 0:
            if not valid.all():
                raise RgbxError("world margin insufficient for configured motion")
            out = values
            alphas[0] = 1.0
        else:
            a, _ = bilinear_sample(layer.alpha, tex_pts[:, 0], tex_pts[:, 1])
            alphas[l] = a.reshape(size, size)
            blend = a[:, None] if channels == 3 else a
            out = (1.0 - blend) * out + blend * values
    shape = (size, size, channels) if channels == 3 else (size, size)
    return out.reshape(shape), alphas


def gen_sequence(cfg: SceneConfig) -> GroundTruthBundle:
    """Generate a seeded scene bundle; bit-identical for identical configs."""
    rng = np.random.default_rng(np.random.SeedSequence((0x5CE11E, cfg.seed)))
    size = cfg.size
    rho = np.array(cfg.layer_disparities) / cfg.sensor_baseline
    u = (np.arange(cfg.frames) - (cfg.frames - 1) / 2.0) * cfg.track_step

    margin = int(
        math.ceil(
            cfg.shift_range
            + math.sin(math.radians(cfg.rotation_range_deg)) * size * 0.75
            + cfg.perspective_range * (size / 2.0) ** 2
            + np.abs(rho).max() * (np.abs(u).max() + abs(cfg.sensor_baseline))
            + cfg.sensor_jitter
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
            _camera_homography(
                rng, cfg.rotation_range_deg, cfg.shift_range, cfg.perspective_range, center
            )
            @ to_frame
        )
        q_list.append(
            _camera_homography(
                rng,
                cfg.rotation_range_deg * 0.25,
                cfg.sensor_jitter,
                cfg.perspective_range * 0.25,
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
            track_x = _translation(0.0, rho[l] * (u[n] + cfg.sensor_baseline))
            per_rgb.append(g_list[n] @ track)
            per_x.append(q_list[n] @ g_list[n] @ track_x)
        maps_rgb.append(tuple(per_rgb))
        maps_x.append(tuple(per_x))

    rgb_frames = []
    x_gt_frames = []
    x_raw_frames = []
    area_masks = []
    layer_maps = []
    alphas_rgb = []
    alphas_x = []
    for n in range(cfg.frames):
        rgb_img, a_rgb = _render(layers, list(maps_rgb[n]), size, channels=3)
        x_gt_img, _ = _render(layers, list(maps_rgb[n]), size, channels=1)
        x_raw_img, a_x = _render(layers, list(maps_x[n]), size, channels=1)
        rgb_frames.append(Image(np.clip(rgb_img, 0.0, 1.0)))
        x_gt_frames.append(Image(np.clip(x_gt_img, 0.0, 1.0)))
        x_raw_frames.append(Image(np.clip(x_raw_img, 0.0, 1.0)))
        alphas_rgb.append(a_rgb)
        alphas_x.append(a_x)

        lm = np.zeros((size, size), dtype=np.int64)
        for l in range(1, cfg.layers):
            lm[a_rgb[l] > 0.5] = l
        layer_maps.append(lm)

        rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        pts = np.column_stack([rows.ravel(), cols.ravel()]).astype(np.float64)
        tex = _apply_homography(np.linalg.inv(maps_rgb[n][0]), pts)
        hm, _ = bilinear_sample(homog_world.astype(np.float64), tex[:, 0], tex[:, 1])
        area = (hm.reshape(size, size) > 0.5) & (lm == 0)
        # erode away from region boundaries, as a careful mask provider
        # would: warped values right at a contrast step are unreliable seeds
        area = binary_erosion(area, iterations=2)
        area_masks.append(Mask(area))

    corruption_masks = None
    if cfg.corrupt_patch_fraction > 0.0:
        corruption_masks = tuple(
            _corruption_mask(cfg, int(rng.integers(0, 2**31)), x_gt_frames[n].data)
            for n in range(cfg.frames)
        )

    bundle = GroundTruthBundle(
        cfg=cfg,
        rgb=tuple(rgb_frames),
        x_gt=tuple(x_gt_frames),
        x_raw=tuple(x_raw_frames),
        area_masks=tuple(area_masks),
        layer_maps=tuple(layer_maps),
        alphas_rgb=tuple(alphas_rgb),
        alphas_x=tuple(alphas_x),
        maps_rgb=tuple(maps_rgb),
        maps_x=tuple(maps_x),
        corruption_masks=corruption_masks,
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


def _corruption_mask(cfg: SceneConfig, seed: int, x_ref: np.ndarray) -> Mask:
    """Pick patches to corrupt, preferring textured ones.

    Corrupting a flat patch with other flat content is undetectable by any
    structural validator (and barely corruption); drawing from textured
    patches keeps the injected defects meaningful.
    """
    rng = np.random.default_rng(seed)
    grid = PatchGrid(cfg.size, cfg.size, cfg.patch_size)
    total = grid.patches
    k = max(1, math.ceil(cfg.corrupt_patch_fraction * total))
    stds = np.array([x_ref[grid.bounds(i)].std() for i in range(total)])
    textured = np.flatnonzero(stds > 0.02)
    pool = textured if len(textured) >= k else np.arange(total)
    chosen = pool[rng.choice(len(pool), size=k, replace=False)]
    bits = np.zeros((cfg.size, cfg.size), dtype=bool)
    for idx in chosen:
        bits[grid.bounds(int(idx))] = True
    return Mask(bits)


def corrupt_with_mask(img: Image, mask: Mask, seed: int = 0) -> Image:
    """Replace masked pixels with streak artifacts at a random orientation.

    Emulates badly densified patches: propagation failures show up as
    coherent ripples or streaks of plausible magnitude but wrong structure
    and wrong values, which is what the self-matching stage must catch.
    """
    rng = np.random.default_rng(seed)
    height, width = img.shape
    phi = rng.uniform(0.0, np.pi)
    period = rng.uniform(5.0, 9.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    wave = np.sin(2.0 * np.pi * (rows * np.cos(phi) + cols * np.sin(phi)) / period + phase)
    lo, hi = float(img.data.min()), float(img.data.max())
    mid = lo + rng.uniform(0.35, 0.65) * (hi - lo)
    wrong = np.clip(mid + 0.35 * (hi - lo) * wave, lo, hi)
    out = np.where(mask.bits, wrong, img.data)
    return Image(out, units=img.units)


def with_value_noise(img: Image, sigma: float, seed: int = 0) -> Image:
    rng = np.random.default_rng(seed)
    return Image(np.clip(img.data + rng.normal(0.0, sigma, img.data.shape), 0.0, 1.0), units=img.units)


# ---------------------------------------------------------------------------
# Oracle matcher
# ---------------------------------------------------------------------------


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
    the correlation between confidence and correctness.
    """
    i, j = pair
    if not (0 <= i < bundle.frames and 0 <= j < bundle.frames):
        raise ValueError(f"frame pair {pair} out of range")
    rng = np.random.default_rng(np.random.SeedSequence((0x0AC1E, bundle.cfg.seed, i, j, seed)))
    coords, valid = bundle.correspondence(i, j)
    eligible = valid.copy()
    if noise.skip_homogeneous:
        eligible &= ~bundle.area_masks[i].bits
    candidates = np.argwhere(eligible)
    if len(candidates) == 0:
        return MatchSet(str(i), str(j), np.empty((0, 2)), np.empty((0, 2)), np.empty(0))
    k = min(count, len(candidates))
    chosen = candidates[rng.choice(len(candidates), size=k, replace=False)]
    p_rgb = chosen.astype(np.float64)
    truth = coords[chosen[:, 0], chosen[:, 1]]

    height, width = bundle.shape
    p_out = np.full(k, noise.outlier_fraction)
    if noise.homogeneous_outlier_boost > 1.0 and noise.outlier_fraction > 0.0:
        in_homog = bundle.area_masks[i].bits[chosen[:, 0], chosen[:, 1]]
        share = float(in_homog.mean())
        p_in = min(0.95, noise.outlier_fraction * noise.homogeneous_outlier_boost)
        p_rest = (noise.outlier_fraction - share * p_in) / max(1.0 - share, 1e-9)
        p_out = np.where(in_homog, p_in, max(0.0, p_rest))
    is_outlier = rng.random(k) < p_out
    eps = rng.normal(0.0, noise.sigma, size=(k, 2)) if noise.sigma > 0 else np.zeros((k, 2))
    eps = np.clip(eps, -3.0 * noise.sigma, 3.0 * noise.sigma)
    p_x = truth + eps
    p_x[:, 0] = np.clip(p_x[:, 0], 0.0, height - 1)
    p_x[:, 1] = np.clip(p_x[:, 1], 0.0, width - 1)

    min_dist = max(8.0, 3.0 * noise.sigma * math.sqrt(2.0) + 2.0)
    out_idx = np.flatnonzero(is_outlier)
    for idx in out_idx:
        for _ in range(64):
            cand = np.array([rng.uniform(0.0, height - 1), rng.uniform(0.0, width - 1)])
            if np.linalg.norm(cand - truth[idx]) >= min_dist:
                p_x[idx] = cand
                break

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
    return MatchSet(str(i), str(j), p_rgb, p_x, conf)


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


def save_bundle(bundle: GroundTruthBundle, out_dir: str | Path) -> None:
    """Persist frames and ground truth; the meta file allows exact regeneration."""
    out = Path(out_dir)
    for sub in ("rgb", "x_gt", "x_raw", "masks", "gt"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for n, fid in enumerate(bundle.frame_ids):
        save_image(bundle.rgb[n], out / "rgb" / f"{fid}.png", bit_depth=8)
        save_image(bundle.x_gt[n], out / "x_gt" / f"{fid}.png", bit_depth=16)
        save_image(bundle.x_raw[n], out / "x_raw" / f"{fid}.png", bit_depth=16)
        save_image(
            Image(bundle.area_masks[n].bits.astype(np.float64)),
            out / "masks" / f"{fid}.png",
            bit_depth=8,
        )
    lines = ["# frame layer h00 h01 h02 h10 h11 h12 h20 h21 h22 (RGB->X, row-major)"]
    for n in range(bundle.frames):
        for l, h in enumerate(bundle.layer_homographies(n)):
            entries = " ".join(repr(float(v)) for v in h.ravel())
            lines.append(f"{n} {l} {entries}")
    (out / "gt" / "homographies.txt").write_text("\n".join(lines) + "\n")
    (out / "gt" / "meta").write_text(json.dumps(asdict(bundle.cfg), indent=2) + "\n")


def load_bundle(in_dir: str | Path) -> GroundTruthBundle:
    """Regenerate a bundle from its echoed config (bit-identical by contract).

    The most recently loaded bundle is kept and shared, so a run and its
    evaluation (or several runs over one bundle) generate it once; all of
    its arrays are read-only.
    """
    meta = Path(in_dir) / "gt" / "meta"
    if not meta.exists():
        raise RgbxError(f"{in_dir}: not a benchmark bundle (missing gt/meta)")
    raw = json.loads(meta.read_text())
    raw["layer_disparities"] = tuple(raw["layer_disparities"])
    return _regenerate(SceneConfig(**raw))


@functools.lru_cache(maxsize=1)
def _regenerate(cfg: SceneConfig) -> GroundTruthBundle:
    bundle = gen_sequence(cfg)
    for arrays in (bundle.layer_maps, bundle.alphas_rgb, bundle.alphas_x,
                   *bundle.maps_rgb, *bundle.maps_x):
        for arr in arrays:
            arr.flags.writeable = False
    return bundle
