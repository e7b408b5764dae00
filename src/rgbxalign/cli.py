"""Command-line front end: synth / run / eval / export plus stage debuggers."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import fuse_filter
from .colmap import parse_colmap_model
from .densify import compute_affinities
from .errors import FilterError, PipelineError, RgbxError
from .imgcore import Image, load_image, save_image
from .matching import ClassicalBackend, accumulate_matches, load_matchset, save_matchset
from .pipeline import BACKENDS, PipelineConfig, RunManifest, evaluate_run, export_dataset, run_pipeline
from .synthbench import MODALITIES, SceneConfig, gen_sequence, save_bundle

logger = logging.getLogger(__name__)


def _add_synth(sub: argparse._SubParsersAction) -> None:
    # every flag defaults to SceneConfig's value; dests are its field names
    p = sub.add_parser("synth", help="generate a synthetic ground-truth benchmark bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--modality", choices=MODALITIES)
    p.add_argument("--layers", type=int,
                   help="without --disparities, spread 0..8 px over the layers")
    p.add_argument("--disparities", dest="layer_disparities", type=float, nargs="+",
                   help="per-layer RGB->X disparity in px (one value per layer)")
    p.add_argument("--homogeneous-fraction", type=float)
    p.set_defaults(func=_cmd_synth)


def _cmd_synth(args: argparse.Namespace) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(SceneConfig)
             if getattr(args, f.name) is not None}
    try:
        if "layers" in given and "layer_disparities" not in given:
            given["layer_disparities"] = np.linspace(0.0, 8.0, given["layers"])
        cfg = SceneConfig(**given)
    except ValueError as exc:
        raise PipelineError(f"bad scene: {exc}") from exc
    bundle = gen_sequence(cfg)
    save_bundle(bundle, args.out)
    print(f"wrote {bundle.frames}-frame {cfg.modality} bundle to {args.out}")
    return 0


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run the full match-densify-consolidate pipeline")
    p.add_argument("--input", required=True, help="directory with rgb/, x/ (or x_raw/), masks/")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of PipelineConfig fields")
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--seed", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--dump-levels", action="store_true", default=None)
    p.add_argument("--no-confidence", action="store_true",
                   help="force the propagation confidence map to 1 (densify.use_confidence)")
    p.add_argument("--no-area-sampling", dest="enable_area_sampling", action="store_false",
                   default=None)
    p.add_argument("--no-filtering", dest="enable_filtering", action="store_false", default=None)
    p.add_argument("--oracle-sigma", type=float)
    p.add_argument("--oracle-outliers", type=float)
    p.add_argument("--oracle-rho", type=float)
    p.add_argument("--oracle-count", type=int)
    p.set_defaults(func=_cmd_run)


def _cmd_run(args: argparse.Namespace) -> int:
    payload = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise PipelineError(f"{args.config}: cannot read a JSON config ({exc})") from exc
        if not isinstance(payload, dict):
            raise PipelineError(f"{args.config}: a config must be a JSON object")
    payload["input_dir"] = args.input
    payload["output_dir"] = args.out
    if args.no_confidence:
        densify = payload.setdefault("densify", {})
        if isinstance(densify, dict):  # anything else is rejected by the config
            densify["use_confidence"] = False
    # flags given win; their dests are field names
    payload.update({f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                    if getattr(args, f.name, None) is not None})
    cfg = PipelineConfig.from_json(payload)
    manifest = run_pipeline(cfg)
    ok = sum(1 for f in manifest.frames if f.status == "ok")
    print(f"{ok}/{len(manifest.frames)} frames ok, {manifest.failed} failed -> {args.out}")
    return 0 if manifest.failed == 0 else 1


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="score a run against its benchmark ground truth")
    p.add_argument("--input", required=True, help="benchmark bundle directory")
    p.add_argument("--run", required=True, help="pipeline output directory")
    p.set_defaults(func=_cmd_eval)


def _cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate_run(args.input, args.run)
    run_dir = Path(args.run)
    report.write_csv(run_dir / "metrics.csv")
    report.write_json(run_dir / "metrics.json")
    agg = report.aggregate()
    print(f"PSNR {agg.psnr:.3f} dB  SSIM {agg.ssim:.4f}  RMSE {agg.rmse:.5f}  "
          f"consistency {agg.consistency:.5f}")
    return 0


def _add_export(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("export", help="export an aligned RGB-X dataset for a 3DGS trainer")
    p.add_argument("--run", required=True, help="pipeline output directory (with manifest.json)")
    p.add_argument("--model", required=True, help="COLMAP text model directory")
    p.add_argument("--out", required=True)
    p.add_argument("--name-format")
    p.set_defaults(func=_cmd_export)


def _cmd_export(args: argparse.Namespace) -> int:
    manifest = RunManifest.read(Path(args.run) / "manifest.json")
    model = parse_colmap_model(args.model)
    given = {} if args.name_format is None else {"name_format": args.name_format}
    result = export_dataset(manifest, model, args.out, run_dir=args.run, **given)
    print(f"exported {len(result['images'])} aligned pairs to {args.out} "
          f"({len(result['warnings'])} warnings)")
    return 0


def _add_match(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("match", help="match one RGB/X pair with the classical backend")
    p.add_argument("--rgb", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)


def _cmd_match(args: argparse.Namespace) -> int:
    ms = ClassicalBackend().match_pair(load_image(args.rgb), load_image(args.x))
    save_matchset(ms, args.out)
    print(f"{len(ms)} matches -> {args.out}")
    return 0


def _add_densify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("densify", help="densify a match file against an RGB frame")
    p.add_argument("--rgb", required=True)
    p.add_argument("--x", required=True, help="X frame supplying matched values")
    p.add_argument("--matches", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_densify)


def _cmd_densify(args: argparse.Namespace) -> int:
    rgb = load_image(args.rgb)
    ms = load_matchset(args.matches)
    sparse, conf = accumulate_matches([ms], [load_image(args.x)], rgb.shape)
    levels, fused = fuse_filter.densify_and_fuse(compute_affinities(rgb), sparse, conf, rgb)
    save_image(fused, args.out, bit_depth=16)
    print(f"densified {sparse.num_known} known pixels over {len(levels)} levels -> {args.out}")
    return 0


def _add_filter(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("filter", help="self-match filter a densified X image")
    p.add_argument("--rgb", required=True)
    p.add_argument("--xd", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_filter)


def _cmd_filter(args: argparse.Namespace) -> int:
    rgb = load_image(args.rgb)
    xd = load_image(args.xd)
    if xd.shape != rgb.shape:
        raise FilterError(f"--xd is {xd.height}x{xd.width}, --rgb {rgb.height}x{rgb.width}")
    sim = fuse_filter.similarity_matrix(
        fuse_filter.patch_descriptors(rgb), fuse_filter.patch_descriptors(xd)
    )
    score = fuse_filter.self_match_score(sim)
    result = fuse_filter.concentration_and_filter(xd, sim)
    save_image(Image((~result.sparse.known).astype(np.float64)),
               Path(args.out_prefix + "_rejected.png"), bit_depth=8)
    save_image(Image(np.where(result.sparse.known, result.sparse.values, 0.0), units=xd.units),
               Path(args.out_prefix + "_filtered.png"), bit_depth=16)
    rejected = result.rejected_patches
    print(f"q={result.q:.4f} theta={result.threshold:.4f} "
          f"rejected={int(rejected.sum())}/{rejected.size} lsim={score:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rgbxalign",
        description="Produce view-aligned RGB-X image pairs from unaligned cross-sensor input.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_synth, _add_run, _add_eval, _add_export, _add_match, _add_densify, _add_filter):
        add(sub)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    # an OSError is a path that cannot be made or read, such as an --out
    # that names a file
    except (RgbxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
