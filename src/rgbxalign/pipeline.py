"""End-to-end orchestration: match, accumulate, densify, fuse, filter, export.

A run consumes a directory of RGB frames and unaligned X frames (plus
optional area masks and cached matches), produces one aligned X image per
RGB frame, and records every stage outcome in a manifest whose content
hashes make reruns verifiable. Per-frame failures are isolated: a frame
falls back down the ladder fine -> fused -> homography-warped X, or is
marked failed, and the run continues.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import logging
import math
import os
import shutil
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import fuse_filter, metrics
from .colmap import ColmapModel, write_colmap_model
from .densify import DensifyConfig, compute_affinities
from .errors import DensifyError, EstimationFailedError, ImageIOError, PipelineError, RgbxError
from .imgcore import Image, Mask, _check_field_types, _sidecar_path, load_image, save_image
from .matching import (
    Homography,
    MatchSet,
    accumulate_matches,
    ClassicalBackend,
    estimate_homography,
    load_matchset,
    warp_image,
)
from .sampling import area_sample
from .synthbench import NoiseModel, consistency_metric, load_bundle, oracle_match

logger = logging.getLogger(__name__)

BACKENDS = ("oracle", "classical", "file")


def stage_seed(root: int, *parts: int) -> int:
    """Stable per-frame, per-stage seed derivation."""
    return int(np.random.SeedSequence((root, *parts)).generate_state(1)[0])


@dataclass
class PipelineConfig:
    input_dir: str = ""
    output_dir: str = ""
    backend: str = "oracle"
    seed: int = 0
    window: int = 7  # accumulate X keypoints from frames n-3 .. n+3
    densify: DensifyConfig = field(default_factory=DensifyConfig)
    oracle_count: int = 3000
    oracle_sigma: float = 0.0
    oracle_outliers: float = 0.0
    oracle_rho: float = 1.0
    oracle_skip_homogeneous: bool = False
    enable_area_sampling: bool = True
    enable_filtering: bool = True
    dump_levels: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        # a wrong type would otherwise fail every frame, or pass for a flag that is on
        _check_field_types(self)
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        # a bad value would otherwise raise inside every frame and abort the run
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.oracle_count < 1:
            raise ValueError("oracle_count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.oracle_noise()
        if isinstance(self.densify, dict):
            self.densify = DensifyConfig(**self.densify)
        if not isinstance(self.densify, DensifyConfig):
            raise ValueError("densify must be a DensifyConfig or an object of its fields")

    def oracle_noise(self) -> NoiseModel:
        """The oracle's match degradation; raises ValueError on a bad value."""
        return NoiseModel(
            sigma=self.oracle_sigma,
            outlier_fraction=self.oracle_outliers,
            rho=self.oracle_rho,
            skip_homogeneous=self.oracle_skip_homogeneous,
        )

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(payload: dict) -> "PipelineConfig":
        """Build a config from its JSON form, as read from a `--config` file.

        Unknown keys (at the top level and in `densify`) and values the
        config rejects raise PipelineError naming them.
        """
        unknown = sorted(set(payload) - {f.name for f in fields(PipelineConfig)})
        densify = payload.get("densify")
        if isinstance(densify, dict):
            known = {f.name for f in fields(DensifyConfig)}
            unknown += [f"densify.{k}" for k in sorted(set(densify) - known)]
        if unknown:
            raise PipelineError(f"unknown config keys: {', '.join(unknown)}")
        try:
            return PipelineConfig(**payload)
        except (TypeError, ValueError) as exc:
            raise PipelineError(f"bad config: {exc}") from exc


@dataclass
class FrameRecord:
    frame: str
    status: str = "ok"  # ok | fallback | failed
    fallback: str = ""
    warnings: list[str] = field(default_factory=list)
    q: float = math.nan
    threshold: float = math.nan
    rejected: int = 0
    lsim_before: float = math.nan
    lsim_after: float = math.nan
    outputs: dict[str, str] = field(default_factory=dict)  # relpath -> sha256


@dataclass
class RunManifest:
    config: dict
    frames: list[FrameRecord] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.frames if f.status == "failed")

    def to_json(self) -> dict:
        """The manifest's JSON form. `failed` and `filter_worsened`, the sorted
        ids of the frames whose filtering raised the self-match score, are
        derived from the records, so `read` ignores them."""
        return {
            "config": self.config,
            "frames": [asdict(f) for f in self.frames],
            "failed": self.failed,
            "filter_worsened": sorted(f.frame for f in self.frames if f.lsim_after > f.lsim_before),
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    @staticmethod
    def read(path: str | Path) -> "RunManifest":
        """Read a manifest that `write` wrote; anything else raises PipelineError."""
        try:
            payload = json.loads(Path(path).read_text())
            config = payload["config"]
            # `export` reads the two directories of the config echo
            if not all(isinstance(config[k], str) for k in ("input_dir", "output_dir")):
                raise TypeError("input_dir and output_dir must be strings")
            return RunManifest(config, [_read_record(f) for f in payload["frames"]])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise PipelineError(f"{path}: cannot read a run manifest ({exc!r})") from exc


def _read_record(record: dict) -> FrameRecord:
    """The FrameRecord of a manifest's JSON record; TypeError names the first
    field of the wrong type."""
    rec = FrameRecord(**record)
    _check_field_types(rec)
    for name in ("frame", "status", "fallback"):
        if not isinstance(getattr(rec, name), str):
            raise TypeError(f"{name} must be a string, got {getattr(rec, name)!r}")
    if not isinstance(rec.warnings, list) or not all(isinstance(w, str) for w in rec.warnings):
        raise TypeError(f"warnings must be a list of strings, got {rec.warnings!r}")
    # JSON object keys are strings already
    outputs = rec.outputs
    if not isinstance(outputs, dict) or not all(isinstance(v, str) for v in outputs.values()):
        raise TypeError(f"outputs must be an object of strings, got {outputs!r}")
    return rec


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _frame_paths(directory: Path) -> dict[str, Path]:
    """The directory's PNG and PGM files by frame id, their stem; two files
    of one frame are refused."""
    if not directory.is_dir():
        return {}
    out = {}
    for p in sorted(directory.iterdir()):
        if p.suffix.lower() in (".png", ".pgm") and out.setdefault(p.stem, p) != p:
            raise PipelineError(f"two files for frame {p.stem}: {out[p.stem]} and {p}")
    return out


@dataclass
class _RunContext:
    cfg: PipelineConfig
    frame_ids: list[str]
    rgb: dict[str, Image]
    x: dict[str, Image]
    masks: dict[str, Path]
    # the backend's matches of an RGB frame against an X frame, by their ids
    match: Callable[[str, str], MatchSet]
    out_dir: Path
    # frame id -> why its file could not be read or used; such a frame is
    # left out of `rgb` or `x`
    unreadable_rgb: dict[str, str] = field(default_factory=dict)
    unreadable_x: dict[str, str] = field(default_factory=dict)

    @functools.cached_property
    def sequence(self) -> list[str]:
        """The sorted ids of every RGB and readable X frame. Windows and
        per-frame seeds are counted over it, so a frame missing from one
        sensor changes no other frame's window or seeds."""
        return sorted(set(self.frame_ids) | set(self.x))


def _load_frames(paths: dict[str, Path]) -> tuple[dict[str, Image], dict[str, str]]:
    """Load every frame; an unreadable file is logged and reported, not raised."""
    images, unreadable = {}, {}
    for fid, path in paths.items():
        try:
            images[fid] = load_image(path)
        except ImageIOError as exc:
            logger.warning("frame %s unreadable: %s", fid, exc)
            unreadable[fid] = str(exc)
    return images, unreadable


def _set_aside(images: dict[str, Image], unusable: dict[str, str], why_unusable) -> None:
    """Move each frame `why_unusable` gives a reason for from `images` to `unusable`."""
    for fid, img in list(images.items()):
        if why := why_unusable(img):
            del images[fid]
            unusable[fid] = why
            logger.warning("frame %s set aside: %s", fid, why)


def _load_context(cfg: PipelineConfig) -> _RunContext:
    input_dir = Path(cfg.input_dir)
    rgb_paths = _frame_paths(input_dir / "rgb")
    x_dir = input_dir / "x"
    if not x_dir.is_dir():
        x_dir = input_dir / "x_raw"
    x_paths = _frame_paths(x_dir)
    if not rgb_paths:
        raise PipelineError(f"no RGB frames under {input_dir / 'rgb'}")
    frame_ids = sorted(rgb_paths)
    rgb, unreadable_rgb = _load_frames(rgb_paths)
    x, unreadable_x = _load_frames(x_paths)
    masks = _frame_paths(input_dir / "masks")
    # a colour X frame cannot be accumulated
    _set_aside(x, unreadable_x, lambda img: "" if img.channels == 1
               else f"{img.channels} channels, X frames must be single-channel")

    # only the oracle reads the ground truth; other backends ignore gt/
    if cfg.backend == "oracle":
        bundle = load_bundle(input_dir)
        noise = cfg.oracle_noise()
        unknown = sorted((set(frame_ids) | set(x)) - set(bundle.frame_index))
        if unknown:
            raise PipelineError(f"frames {unknown} are not in the benchmark bundle")
        # the oracle's matches lie on the bundle's raster
        height, width = bundle.shape
        for images, unusable in ((rgb, unreadable_rgb), (x, unreadable_x)):
            _set_aside(images, unusable, lambda img: "" if img.shape == bundle.shape
                       else f"{img.height}x{img.width}, the bundle's frames are {height}x{width}")

        def match(rgb_id: str, x_id: str) -> MatchSet:
            pair = bundle.frame_index[rgb_id], bundle.frame_index[x_id]
            return oracle_match(bundle, pair, noise, cfg.oracle_count, seed=cfg.seed)
    elif cfg.backend == "classical":
        classical = ClassicalBackend()

        def match(rgb_id: str, x_id: str) -> MatchSet:
            return classical.match_pair(rgb[rgb_id], x[x_id], rgb_id, x_id)
    else:
        matches_dir = input_dir / "matches"

        def match(rgb_id: str, x_id: str) -> MatchSet:
            # cached or externally produced match files
            path = matches_dir / f"{rgb_id}_{x_id}.txt"
            if not path.exists():
                return MatchSet(rgb_id, x_id, warnings=(f"no match file {path.name}",))
            # `rgbxalign match` writes the header "0 0"; the file name names the frames
            ms = load_matchset(path)
            return MatchSet(rgb_id, x_id, ms.p_rgb, ms.p_x, ms.conf)

    out_dir = Path(cfg.output_dir)
    (out_dir / "x_final").mkdir(parents=True, exist_ok=True)
    return _RunContext(cfg, frame_ids, rgb, x, masks, match, out_dir, unreadable_rgb, unreadable_x)


def _window(ctx: _RunContext, k: int) -> tuple[list[str], list[str]]:
    """(span, x_ids) of the frame at position k of `ctx.sequence`: the ids
    within window // 2 of it, and the X frames among them, which are matched
    against its RGB frame."""
    half = ctx.cfg.window // 2
    span = ctx.sequence[max(0, k - half) : k + half + 1]
    return span, [m for m in span if m in ctx.x]


def process_frame(ctx: _RunContext, n: int) -> FrameRecord:
    """RGB frame n's record. An RgbxError, such as a malformed match file or
    X frames with mixed units, fails the frame alone; its record keeps the
    warnings gathered before it and the log gets one line."""
    rec = FrameRecord(frame=ctx.frame_ids[n])
    try:
        return _process_frame(ctx, rec)
    except RgbxError as exc:
        rec.status = "failed"
        rec.warnings.append(str(exc))
        logger.error("frame %s failed: %s", rec.frame, exc)
        return rec


def _process_frame(ctx: _RunContext, rec: FrameRecord) -> FrameRecord:
    cfg = ctx.cfg
    fid = rec.frame
    if fid in ctx.unreadable_rgb:
        rec.status = "failed"
        rec.warnings.append(f"unreadable RGB frame ({ctx.unreadable_rgb[fid]})")
        return rec
    rgb = ctx.rgb[fid]
    shape = rgb.shape
    # the frame's index in frame_ids when both sensors have the same frames
    k = ctx.sequence.index(fid)

    span, window = _window(ctx, k)
    for m, why in sorted(ctx.unreadable_x.items()):
        if span[0] <= m <= span[-1]:
            rec.warnings.append(f"X frame {m} unreadable, treated as missing ({why})")
    if len(window) < cfg.window:
        rec.warnings.append(f"window shrunk to {len(window)} frames")
    if not window:
        rec.status = "failed"
        rec.warnings.append("no X frames available in window")
        return rec

    sets = [ctx.match(fid, m) for m in window]
    for ms in sets:
        rec.warnings.extend(ms.warnings)
    sparse, conf = accumulate_matches(sets, [ctx.x[m] for m in window], shape)

    # homography warp of the synchronous X frame, or of the window's middle
    # one when it is missing (area-sampling source and the last fallback
    # rung); the warp moves the X frame the homography was estimated for
    center = sets[window.index(fid)] if fid in window else sets[len(sets) // 2]
    try:
        hom, _ = estimate_homography(center, seed=stage_seed(cfg.seed, k, 1))
    except EstimationFailedError as exc:
        hom = Homography.identity()
        rec.warnings.append(f"homography estimation failed ({exc}); identity warp")
    warped, validity = warp_image(ctx.x[center.x_frame], hom, shape)

    if cfg.enable_area_sampling:
        mask = _area_mask_for(ctx, fid, shape)
        if isinstance(mask, Mask):
            sparse, conf = area_sample(
                sparse, conf, warped, validity, mask, stage_seed(cfg.seed, k, 2)
            )
        else:
            rec.warnings.append(f"{mask}; area sampling skipped")

    try:
        aff = compute_affinities(rgb)
        levels, fused = fuse_filter.densify_and_fuse(aff, sparse, conf, rgb, cfg.densify)
    except DensifyError as exc:
        rec.status = "fallback"
        rec.fallback = "homography-warp"
        rec.warnings.append(f"densification failed ({exc}); homography warp output")
        _write_frame_output(ctx, rec, warped)
        return rec
    if len(levels) < len(cfg.densify.thresholds):
        missing = [d for d in cfg.densify.thresholds if d not in levels]
        rec.warnings.append(f"levels omitted (no surviving pixels): {missing}")
    if cfg.dump_levels:
        level_dir = ctx.out_dir / "levels"
        level_dir.mkdir(exist_ok=True)
        for delta, img in levels.items():
            save_image(img, level_dir / f"{fid}_d{delta:.2f}.png", bit_depth=16)

    x_final = fused
    if cfg.enable_filtering:
        try:
            f_rgb = fuse_filter.patch_descriptors(rgb)
            sim = fuse_filter.similarity_matrix(f_rgb, fuse_filter.patch_descriptors(fused))
            rec.lsim_before = fuse_filter.self_match_score(sim)
            result = fuse_filter.concentration_and_filter(fused, sim)
            rec.q = result.q
            rec.threshold = result.threshold
            rec.rejected = int(result.rejected_patches.sum())
            if result.degenerate:
                rec.warnings.append("self-match degenerate; nothing rejected")
            x_final = fuse_filter.fine_densify(aff, result.sparse, result.conf, cfg.densify)
            rec.lsim_after = fuse_filter.self_match_score(
                fuse_filter.similarity_matrix(f_rgb, fuse_filter.patch_descriptors(x_final))
            )
        except RgbxError as exc:
            rec.status = "fallback"
            rec.fallback = "fused"
            rec.warnings.append(f"filtering stage failed ({exc}); fused output kept")
            x_final = fused

    _write_frame_output(ctx, rec, x_final)
    return rec


def _area_mask_for(ctx: _RunContext, fid: str, shape: tuple[int, int]) -> Mask | str:
    """The frame's area mask, or why there is none (masks are optional)."""
    if fid not in ctx.masks:
        return "no area mask available"
    try:
        img = load_image(ctx.masks[fid])
    except ImageIOError as exc:
        return f"area mask unreadable ({exc})"
    if img.shape != shape:
        return f"area mask is {img.height}x{img.width}, the frame {shape[0]}x{shape[1]}"
    return Mask(img.data > 0.5 if img.channels == 1 else img.data[:, :, 0] > 0.5)


def _write_frame_output(ctx: _RunContext, rec: FrameRecord, img: Image) -> None:
    rel = Path("x_final") / f"{rec.frame}.png"
    path = ctx.out_dir / rel
    save_image(img, path, bit_depth=16)
    rec.outputs[str(rel)] = _sha256(path)


# get/set symbol pairs of an OpenBLAS thread pool: numpy's wheel build
# (64-bit integers), scipy's wheel build, and a plain build of either width
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _openblas_pools() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(name, get, set) of the thread pool of every OpenBLAS library already
    mapped into the process; none where there is no /proc/self/maps or no
    OpenBLAS. Nothing new is loaded."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                parts = line.rstrip("\n").split(None, 5)
                if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower():
                    paths.add(parts[5])
    except OSError:
        return []
    pools = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            try:
                get, put = lib[get_name], lib[set_name]
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            pools.append((os.path.basename(path), get, put))
            break
    return pools


class _OneBlasThread:
    """Holds every OpenBLAS pool in the process at one thread while entered.

    An OpenBLAS worker that a large product wakes busy-waits for a while
    after it, taking a core from the run's own threads (the frame threads
    and the densify helper). The setting is process-wide, so the first
    entry in pins the pools and the last one out gives each back its
    earlier count. Entering returns the names of the pools held. A row of a
    product is computed the same way on any thread, so no result changes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._held: list[tuple[str, Callable[[int], None], int]] = []

    def __enter__(self) -> tuple[str, ...]:
        with self._lock:
            if self._depth == 0:
                self._held = [(name, put, get()) for name, get, put in _openblas_pools()]
                for _, put, _count in self._held:
                    put(1)
            self._depth += 1
            return tuple(name for name, _, _ in self._held)

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for _, put, count in self._held:
                    put(count)
                self._held = []


_one_blas_thread = _OneBlasThread()


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Run every stage for every frame; per-frame failures are isolated.

    OpenBLAS is held at one thread for the whole run, so that its spinning
    workers leave the cores to the run's own threads.
    """
    with _one_blas_thread as pools:
        logger.debug("BLAS held at one thread: %s", ", ".join(pools) or "no OpenBLAS pool found")
        ctx = _load_context(cfg)
        config = cfg.to_json()
        # absolute, so that `export` finds the run's input and outputs from any
        # working directory
        for key in ("input_dir", "output_dir"):
            config[key] = str(Path(config[key]).resolve())
        manifest = RunManifest(config=config)

        frame = functools.partial(process_frame, ctx)
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                records = list(pool.map(frame, range(len(ctx.frame_ids))))
        else:
            records = [frame(n) for n in range(len(ctx.frame_ids))]
        manifest.frames = records

        _write_report_csv(ctx.out_dir / "report.csv", records)
        manifest.write(ctx.out_dir / "manifest.json")
        return manifest


def _write_report_csv(path: Path, records: list[FrameRecord]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["frame", "status", "q", "theta", "rejected", "lsim_before", "lsim_after"]
        )
        for rec in records:
            writer.writerow(
                [rec.frame, rec.status, rec.q, rec.threshold, rec.rejected,
                 rec.lsim_before, rec.lsim_after]
            )


# ---------------------------------------------------------------------------
# Evaluation against a benchmark bundle
# ---------------------------------------------------------------------------


def evaluate_run(input_dir: str | Path, run_dir: str | Path) -> metrics.MetricReport:
    """Score the aligned X outputs a run's manifest records against the
    bundle's ground truth.

    Each recorded output is scored against the bundle frame of the same id;
    one that is missing is not scored, nor is any file the manifest does not
    record. A frame's consistency is scored only when the next bundle frame
    has a scored output too. A run without a readable manifest raises
    PipelineError.
    """
    bundle = load_bundle(input_dir)
    run_dir = Path(run_dir)
    manifest = RunManifest.read(run_dir / "manifest.json")
    out_paths = {rec.frame: run_dir / rel for rec in manifest.frames for rel in rec.outputs
                 if (run_dir / rel).is_file()}
    if not out_paths:
        raise PipelineError(f"no recorded outputs under {run_dir}")
    unknown = sorted(set(out_paths) - set(bundle.frame_index))
    if unknown:
        raise PipelineError(f"outputs {unknown} are not frames of the benchmark bundle")
    report = metrics.MetricReport()
    outputs: dict[int, Image] = {}
    for fid in sorted(out_paths):
        idx = bundle.frame_index[fid]
        img = load_image(out_paths[fid])
        outputs[idx] = img
        gt = bundle.x_gt[idx]
        fm = metrics.FrameMetrics(frame=fid)
        fm.psnr = metrics.psnr(img, gt)
        fm.ssim = metrics.ssim(img, gt)
        fm.mae, fm.rmse = metrics.mae_rmse(img, gt)
        sim = fuse_filter.similarity_matrix(
            fuse_filter.patch_descriptors(bundle.rgb[idx]), fuse_filter.patch_descriptors(img)
        )
        fm.diag = tuple(metrics.diag_percentiles(sim))
        fm.self_match = fuse_filter.self_match_score(sim)
        report.frames.append(fm)
    for fm in report.frames:
        idx = bundle.frame_index[fm.frame]
        if idx + 1 in outputs:
            fm.consistency = consistency_metric([outputs[idx], outputs[idx + 1]], bundle, idx)
    return report


# ---------------------------------------------------------------------------
# Dataset export for downstream 3-D trainers
# ---------------------------------------------------------------------------


def export_dataset(
    manifest: RunManifest,
    model: ColmapModel,
    out_dir: str | Path,
    run_dir: str | Path | None = None,
    name_format: str = "{frame}.png",
) -> dict:
    """Write an aligned multi-view dataset: RGB frames, 16-bit X, poses.

    `name_format` must give every frame id a name of its own under
    `images/` (neither absolute nor with a `..` part), and every recorded
    output must exist with its manifest sha256, else PipelineError before
    anything is written. Frames without a pose in the
    COLMAP model or without their RGB source are excluded with a warning;
    no overlap at all is an error. The `sparse/` model keeps every camera
    and lists the exported images only. Returns the export mapping manifest.
    """
    try:
        names = {rec.frame: name_format.format(frame=rec.frame) for rec in manifest.frames}
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        raise PipelineError(
            f"bad name format {name_format!r} ({type(exc).__name__}: {exc}); "
            "it may use only {frame}, the frame id"
        ) from exc
    frame_of: dict[str, str] = {}
    for frame, name in names.items():
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise PipelineError(
                f"name format {name_format!r} gives frame {frame} the name {name!r}, "
                "which leaves the images directory"
            )
        if frame_of.setdefault(name, frame) != frame:
            raise PipelineError(
                f"name format {name_format!r} gives frames {frame_of[name]} and {frame} "
                f"the same name {name!r}"
            )
    out = Path(out_dir)
    input_dir = Path(manifest.config["input_dir"])
    run_dir = Path(run_dir if run_dir is not None else manifest.config["output_dir"])
    for rec in manifest.frames:
        for rel, digest in rec.outputs.items():
            path = run_dir / rel
            if not path.is_file():
                raise PipelineError(f"frame {rec.frame}: output {path} is missing")
            if _sha256(path) != digest:
                raise PipelineError(f"frame {rec.frame}: output {path} differs from the manifest")

    by_name = model.by_name()
    rgb_sources = _frame_paths(input_dir / "rgb")
    mapping = {}
    warnings = []
    no_rgb = 0
    for rec in manifest.frames:
        if rec.status == "failed" or not rec.outputs:
            warnings.append(f"frame {rec.frame}: no output to export")
            continue
        name = names[rec.frame]
        if name not in by_name:
            warnings.append(f"frame {rec.frame}: no pose for {name}")
            continue
        rgb_src = rgb_sources.get(rec.frame)
        if rgb_src is None:
            warnings.append(f"frame {rec.frame}: missing RGB source in {input_dir / 'rgb'}")
            no_rgb += 1
            continue
        # made with the first copy, so an export that exports nothing leaves
        # nothing; a COLMAP name may hold directories (cam0/0000.png)
        rgb_dst = out / "images" / name
        rgb_dst.parent.mkdir(parents=True, exist_ok=True)
        (out / "x").mkdir(exist_ok=True)
        shutil.copyfile(rgb_src, rgb_dst)
        x_rel = next(iter(rec.outputs))
        x_src = run_dir / x_rel
        x_dst = out / "x" / f"{rec.frame}.png"
        shutil.copyfile(x_src, x_dst)
        sidecar = _sidecar_path(x_src)
        if sidecar.exists():
            shutil.copyfile(sidecar, _sidecar_path(x_dst))
        mapping[by_name[name].image_id] = {"name": name, "x": f"x/{rec.frame}.png"}
    for w in warnings:
        logger.warning("%s", w)
    if not mapping:
        why = f"; {no_rgb} frames lack their RGB source in {input_dir / 'rgb'}" if no_rgb else ""
        raise PipelineError(f"no overlap between run frames and COLMAP images{why}")
    # a trainer opens every image the model lists, so list only those exported
    exported = {image_id: model.images[image_id] for image_id in mapping}
    write_colmap_model(ColmapModel(model.cameras, exported), out / "sparse")
    payload = {"images": mapping, "warnings": warnings}
    (out / "dataset.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
