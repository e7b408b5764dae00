"""End-to-end orchestration: match, accumulate, densify, fuse, filter, export.

A run consumes a directory of RGB frames and unaligned X frames (plus
optional area masks and cached matches), produces one aligned X image per
RGB frame, and records every stage outcome in a manifest whose content
hashes make reruns verifiable. Per-frame failures are isolated: a frame
falls back down the ladder fine -> fused -> homography-warped X, or is
marked failed, and the run continues.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fuse_filter, metrics
from .colmap import ColmapModel, write_colmap_model
from .densify import DensifyConfig, densify_multilevel
from .errors import DensifyError, EstimationFailedError, PipelineError, RgbxError
from .imgcore import Image, Mask, load_image, save_image
from .matching import (
    Homography,
    MatchSet,
    accumulate_matches,
    ClassicalBackend,
    estimate_homography,
    load_matchset,
    warp_image,
)
from .sampling import AreaSampleConfig, area_sample
from .synthbench import GroundTruthBundle, NoiseModel, load_bundle, oracle_match

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
    tau: float = 0.1
    lam: float = 0.1
    area_rate: float = 0.05
    area_conf: float = 0.3
    patch_size: int = 32
    densify: DensifyConfig = field(default_factory=DensifyConfig)
    ransac_thresh: float = 2.0
    ransac_iters: int = 500
    oracle_count: int = 3000
    oracle_sigma: float = 0.0
    oracle_outliers: float = 0.0
    oracle_rho: float = 1.0
    oracle_skip_homogeneous: bool = False
    oracle_homog_outlier_boost: float = 1.0
    use_matching_confidence: bool = True
    enable_area_sampling: bool = True
    enable_filtering: bool = True
    dump_levels: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        # a bad value would otherwise raise inside every frame and abort the run
        AreaSampleConfig(self.area_rate, self.area_conf)
        if self.tau <= 0 or self.lam < 0:
            raise ValueError("tau must be > 0 and lam >= 0")
        if self.patch_size < 1:
            raise ValueError("patch_size must be >= 1")
        if self.ransac_thresh <= 0 or self.ransac_iters < 1:
            raise ValueError("ransac_thresh must be > 0 and ransac_iters >= 1")
        if self.oracle_count < 1:
            raise ValueError("oracle_count must be >= 1")
        if isinstance(self.densify, dict):
            d = dict(self.densify)
            if "thresholds" in d:
                d["thresholds"] = tuple(d["thresholds"])
            if "radii" in d:
                d["radii"] = tuple(d["radii"])
            self.densify = DensifyConfig(**d)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(payload: dict) -> "PipelineConfig":
        return PipelineConfig(**payload)


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
        return {
            "config": self.config,
            "frames": [asdict(f) for f in self.frames],
            "failed": self.failed,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _frame_paths(directory: Path) -> dict[str, Path]:
    if not directory.is_dir():
        return {}
    out = {}
    for p in sorted(directory.iterdir()):
        if p.suffix.lower() in (".png", ".pgm"):
            out[p.stem] = p
    return out


class _OracleAdapter:
    """Serves ground-truth matches from a benchmark bundle."""

    def __init__(self, bundle: GroundTruthBundle, noise: NoiseModel, count: int, seed: int):
        self.name = "oracle"
        self.bundle = bundle
        self.noise = noise
        self.count = count
        self.seed = seed
        self.index = {fid: n for n, fid in enumerate(bundle.frame_ids)}

    def match_pair(self, rgb: Image, x: Image, rgb_frame: str, x_frame: str) -> MatchSet:
        i = self.index[rgb_frame]
        j = self.index[x_frame]
        ms = oracle_match(self.bundle, (i, j), self.noise, self.count, seed=self.seed)
        return MatchSet(rgb_frame, x_frame, ms.p_rgb, ms.p_x, ms.conf)


class _FileAdapter:
    """Loads cached or externally produced match files."""

    def __init__(self, matches_dir: Path):
        self.name = "file"
        self.matches_dir = matches_dir

    def match_pair(self, rgb: Image, x: Image, rgb_frame: str, x_frame: str) -> MatchSet:
        path = self.matches_dir / f"{rgb_frame}_{x_frame}.txt"
        if not path.exists():
            return MatchSet(
                rgb_frame, x_frame, np.empty((0, 2)), np.empty((0, 2)), np.empty(0),
                warnings=(f"no match file {path.name}",),
            )
        ms = load_matchset(path)
        return MatchSet(rgb_frame, x_frame, ms.p_rgb, ms.p_x, ms.conf)


@dataclass
class _RunContext:
    cfg: PipelineConfig
    frame_ids: list[str]
    rgb: dict[str, Image]
    x: dict[str, Image]
    masks: dict[str, Path]
    backend: object
    out_dir: Path
    bundle: GroundTruthBundle | None = None


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
    rgb = {fid: load_image(p) for fid, p in rgb_paths.items()}
    x = {fid: load_image(p) for fid, p in x_paths.items()}
    masks = _frame_paths(input_dir / "masks")

    bundle = None
    if (input_dir / "gt" / "meta").exists():
        bundle = load_bundle(input_dir)

    if cfg.backend == "oracle":
        if bundle is None:
            raise PipelineError("oracle backend requires a benchmark bundle (gt/meta)")
        noise = NoiseModel(
            sigma=cfg.oracle_sigma,
            outlier_fraction=cfg.oracle_outliers,
            rho=cfg.oracle_rho,
            skip_homogeneous=cfg.oracle_skip_homogeneous,
            homogeneous_outlier_boost=cfg.oracle_homog_outlier_boost,
        )
        backend = _OracleAdapter(bundle, noise, cfg.oracle_count, cfg.seed)
        unknown = [fid for fid in frame_ids if fid not in backend.index]
        if unknown:
            raise PipelineError(f"frames {unknown} are not in the benchmark bundle")
    elif cfg.backend == "classical":
        backend = ClassicalBackend()
    else:
        backend = _FileAdapter(input_dir / "matches")

    out_dir = Path(cfg.output_dir)
    (out_dir / "x_final").mkdir(parents=True, exist_ok=True)
    return _RunContext(cfg, frame_ids, rgb, x, masks, backend, out_dir, bundle)


def _window_ids(ctx: _RunContext, n: int) -> list[str]:
    half = ctx.cfg.window // 2
    ids = []
    for m in range(n - half, n + half + 1):
        if 0 <= m < len(ctx.frame_ids) and ctx.frame_ids[m] in ctx.x:
            ids.append(ctx.frame_ids[m])
    return ids


def process_frame(ctx: _RunContext, n: int) -> FrameRecord:
    cfg = ctx.cfg
    fid = ctx.frame_ids[n]
    rec = FrameRecord(frame=fid)
    rgb = ctx.rgb[fid]
    shape = rgb.shape

    window = _window_ids(ctx, n)
    if len(window) < cfg.window:
        rec.warnings.append(f"window shrunk to {len(window)} frames")
    if not window:
        rec.status = "failed"
        rec.warnings.append("no X frames available in window")
        return rec

    sets = [ctx.backend.match_pair(rgb, ctx.x[m], fid, m) for m in window]
    for ms in sets:
        rec.warnings.extend(ms.warnings)
    sparse, conf = accumulate_matches(sets, [ctx.x[m] for m in window], fid, shape)

    # homography warp of the synchronous X frame (area-sampling source and
    # the last fallback rung)
    center = sets[window.index(fid)] if fid in window else sets[len(sets) // 2]
    try:
        hom, _ = estimate_homography(
            center, cfg.ransac_thresh, cfg.ransac_iters, seed=stage_seed(cfg.seed, n, 1)
        )
    except EstimationFailedError as exc:
        hom = Homography.identity()
        rec.warnings.append(f"homography estimation failed ({exc}); identity warp")
    x_src = ctx.x.get(fid, ctx.x[window[0]])
    warped, validity = warp_image(x_src, hom, shape)

    if cfg.enable_area_sampling:
        mask = _area_mask_for(ctx, fid, shape)
        if mask is not None:
            sparse, conf = area_sample(
                sparse, conf, warped, validity, mask,
                AreaSampleConfig(cfg.area_rate, cfg.area_conf, seed=stage_seed(cfg.seed, n, 2)),
            )
        else:
            rec.warnings.append("no area mask available; area sampling skipped")

    dcfg = cfg.densify if cfg.use_matching_confidence else replace(cfg.densify, use_confidence=False)
    certainty: dict[float, float] = {}
    try:
        levels = densify_multilevel(rgb, sparse, conf, dcfg, certainty)
    except DensifyError as exc:
        rec.status = "fallback"
        rec.fallback = "homography-warp"
        rec.warnings.append(f"densification failed ({exc}); homography warp output")
        _write_frame_output(ctx, rec, warped)
        return rec
    if len(levels) < len(cfg.densify.thresholds):
        missing = [d for d in cfg.densify.thresholds if d not in levels]
        rec.warnings.append(f"levels omitted (no surviving pixels): {missing}")

    enhanced = [fuse_filter.enhance(img, rgb) for img in levels.values()]
    fused = fuse_filter.fuse_levels(
        enhanced, [certainty[d] for d in levels] if certainty else None
    )
    if cfg.dump_levels:
        level_dir = ctx.out_dir / "levels"
        level_dir.mkdir(exist_ok=True)
        for delta, img in levels.items():
            save_image(img, level_dir / f"{fid}_d{delta:.2f}.png", bit_depth=16)

    x_final = fused
    if cfg.enable_filtering:
        try:
            grid = fuse_filter.PatchGrid(shape[0], shape[1], cfg.patch_size)
            f_rgb = fuse_filter.patch_descriptors(rgb, grid)
            f_x = fuse_filter.patch_descriptors(fused, grid)
            sim = fuse_filter.similarity_matrix(f_rgb, f_x, cfg.tau)
            rec.lsim_before = fuse_filter.self_match_score(sim, cfg.lam)
            result = fuse_filter.concentration_and_filter(fused, sim, grid)
            rec.q = result.q
            rec.threshold = result.threshold
            rec.rejected = int(result.rejected_patches.sum())
            if result.degenerate:
                rec.warnings.append("self-match degenerate; nothing rejected")
            x_final = fuse_filter.fine_densify(rgb, result.sparse, result.conf, dcfg)
            f_after = fuse_filter.patch_descriptors(x_final, grid)
            rec.lsim_after = fuse_filter.self_match_score(
                fuse_filter.similarity_matrix(f_rgb, f_after, cfg.tau), cfg.lam
            )
        except (DensifyError, RgbxError) as exc:
            rec.status = "fallback"
            rec.fallback = "fused"
            rec.warnings.append(f"filtering stage failed ({exc}); fused output kept")
            x_final = fused

    _write_frame_output(ctx, rec, x_final)
    return rec


def _area_mask_for(ctx: _RunContext, fid: str, shape: tuple[int, int]) -> Mask | None:
    if fid in ctx.masks:
        img = load_image(ctx.masks[fid])
        if img.shape != shape:
            return None
        return Mask(img.data > 0.5 if img.channels == 1 else img.data[:, :, 0] > 0.5)
    return None


def _write_frame_output(ctx: _RunContext, rec: FrameRecord, img: Image) -> None:
    rel = Path("x_final") / f"{rec.frame}.png"
    path = ctx.out_dir / rel
    save_image(img, path, bit_depth=16)
    rec.outputs[str(rel)] = _sha256(path)


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Run every stage for every frame; per-frame failures are isolated."""
    ctx = _load_context(cfg)
    manifest = RunManifest(config=cfg.to_json())

    def safe(n: int) -> FrameRecord:
        fid = ctx.frame_ids[n]
        try:
            return process_frame(ctx, n)
        except RgbxError as exc:
            logger.exception("frame %s failed", fid)
            return FrameRecord(frame=fid, status="failed", warnings=[str(exc)])

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(safe, range(len(ctx.frame_ids))))
    else:
        records = [safe(n) for n in range(len(ctx.frame_ids))]
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
    """Score a run's aligned X outputs against the bundle's ground truth.

    Each output is scored against the bundle frame of the same id; its
    consistency is scored only when the next bundle frame has an output too.
    """
    from .synthbench import consistency_metric

    bundle = load_bundle(input_dir)
    run_dir = Path(run_dir)
    out_paths = _frame_paths(run_dir / "x_final")
    if not out_paths:
        raise PipelineError(f"no outputs under {run_dir / 'x_final'}")
    index = {fid: n for n, fid in enumerate(bundle.frame_ids)}
    unknown = sorted(set(out_paths) - set(index))
    if unknown:
        raise PipelineError(f"outputs {unknown} are not frames of the benchmark bundle")
    report = metrics.MetricReport()
    outputs: dict[int, Image] = {}
    for fid in sorted(out_paths):
        idx = index[fid]
        img = load_image(out_paths[fid])
        outputs[idx] = img
        gt = bundle.x_gt[idx]
        fm = metrics.FrameMetrics(frame=fid)
        fm.psnr = metrics.psnr(img, gt)
        fm.ssim = metrics.ssim(img, gt)
        fm.mae, fm.rmse = metrics.mae_rmse(img, gt)
        grid = fuse_filter.PatchGrid(img.shape[0], img.shape[1], bundle.cfg.patch_size)
        sim = fuse_filter.similarity_matrix(
            fuse_filter.patch_descriptors(bundle.rgb[idx], grid),
            fuse_filter.patch_descriptors(img, grid),
        )
        fm.diag = tuple(metrics.diag_percentiles(sim))
        fm.self_match = fuse_filter.self_match_score(sim)
        report.frames.append(fm)
    for fm in report.frames:
        idx = index[fm.frame]
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
    input_dir: str | Path | None = None,
    run_dir: str | Path | None = None,
    name_format: str = "{frame}.png",
) -> dict:
    """Write an aligned multi-view dataset: RGB frames, 16-bit X, poses.

    Frames without a pose in the COLMAP model are excluded with a warning;
    no overlap at all is an error. Returns the export mapping manifest.
    """
    out = Path(out_dir)
    input_dir = Path(input_dir if input_dir is not None else manifest.config["input_dir"])
    run_dir = Path(run_dir if run_dir is not None else manifest.config["output_dir"])
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "x").mkdir(parents=True, exist_ok=True)

    by_name = model.by_name()
    mapping = {}
    warnings = []
    for rec in manifest.frames:
        if rec.status == "failed" or not rec.outputs:
            warnings.append(f"frame {rec.frame}: no output to export")
            continue
        name = name_format.format(frame=rec.frame)
        if name not in by_name:
            warnings.append(f"frame {rec.frame}: no pose for {name}")
            continue
        rgb_src = input_dir / "rgb" / f"{rec.frame}.png"
        if not rgb_src.exists():
            warnings.append(f"frame {rec.frame}: missing RGB source {rgb_src}")
            continue
        shutil.copyfile(rgb_src, out / "images" / name)
        x_rel = next(iter(rec.outputs))
        x_src = run_dir / x_rel
        x_dst = out / "x" / f"{rec.frame}.png"
        shutil.copyfile(x_src, x_dst)
        sidecar = x_src.with_name(x_src.name + ".units")
        if sidecar.exists():
            shutil.copyfile(sidecar, x_dst.with_name(x_dst.name + ".units"))
        mapping[by_name[name].image_id] = {"name": name, "x": f"x/{rec.frame}.png"}
    if not mapping:
        raise PipelineError("no overlap between run frames and COLMAP images")
    write_colmap_model(model, out / "sparse")
    payload = {"images": mapping, "warnings": warnings}
    (out / "dataset.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for w in warnings:
        logger.warning("%s", w)
    return payload
