"""One benchmark job in a fresh process: run_pipeline, output gate, evaluate_run.

Usage: python3 bench/job.py '<json spec>'

The spec names the bundle directory, the output directory, the
PipelineConfig fields and whether to trace. The job prints one JSON line: times, peak RSS of this process,
the output gate's verdict, quality and (traced) per-layer metrics. A
fresh process per job keeps peak RSS from carrying over between jobs.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS, Tracer  # noqa: E402

EVAL_REPEATS = 3

# per-layer metrics of a traced job, with units
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "matching.estimate_homography.busy_s": "s",
    "matching.estimate_homography.calls": "count",
    "matching.ransac_inlier_ratio": "1",
    "matching.homography_failed": "count",
    "matching.ClassicalBackend.match_pair.busy_s": "s",
    "matching.ClassicalBackend.match_pair.calls": "count",
    "matching.matches_per_pair": "count",
    "matching.accumulate_matches.busy_s": "s",
    "matching.known_fraction": "1",
    "matching.warp_image.busy_s": "s",
    "sampling.area_sample.busy_s": "s",
    "sampling.pixels_added": "count",
    "sampling.known_fraction_before": "1",
    "sampling.known_fraction_after": "1",
    "densify.propagate.busy_s": "s",
    "densify.propagate.calls": "count",
    "densify.propagate.iterations": "count",
    "densify.propagate.converged_ratio": "1",
    "densify.init_dense.busy_s": "s",
    "densify.init_dense.calls": "count",
    "densify.compute_affinities.busy_s": "s",
    "densify.compute_affinities.calls": "count",
    "densify.densify_multilevel.self_s": "s",
    "densify.levels_ratio": "1",
    "fuse_filter.patch_descriptors.busy_s": "s",
    "fuse_filter.patch_descriptors.calls": "count",
    "fuse_filter.enhance.busy_s": "s",
    "fuse_filter.fuse_levels.busy_s": "s",
    "fuse_filter.similarity_matrix.busy_s": "s",
    "fuse_filter.concentration_and_filter.busy_s": "s",
    "fuse_filter.fine_densify.self_s": "s",
    "fuse_filter.rejected_ratio": "1",
    "fuse_filter.lsim_gain": "1",
    "synthbench.gen_sequence.busy_s": "s",
    "synthbench.gen_sequence.calls": "count",
    "synthbench.oracle_match.busy_s": "s",
    "synthbench.oracle_match.calls": "count",
    "synthbench.consistency_metric.busy_s": "s",
    "imgcore.load_image.busy_s": "s",
    "imgcore.load_image.bytes": "B",
    "imgcore.save_image.busy_s": "s",
    "imgcore.save_image.bytes": "B",
    "metrics.busy_s": "s",
    "pipeline.process_frame.busy_s": "s",
    "pipeline.frame_max_s": "s",
    "pipeline.parallel_efficiency": "1",
    "pipeline.frames_failed_ratio": "1",
    "pipeline.frames_fallback_ratio": "1",
    "trace.run_s": "s",
    "trace.eval_s": "s",
    "trace.self_sum_s": "s",
    "trace.gap_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",  # set by run.py: traced minus untraced run_s
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(bundle_dir: Path, out_dir: Path) -> dict:
    """Gate a run on what it wrote: exactly one output per RGB frame, whose
    bytes hash to the sha256 the manifest records.

    Returns the frames that fail the gate, the reasons, and a digest of all
    output hashes for comparing repeated runs.
    """
    rgb_ids = sorted(p.stem for p in (bundle_dir / "rgb").glob("*.png"))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    records = {rec["frame"]: rec for rec in manifest["frames"]}
    problems: dict[str, str] = {}
    listed = set()
    for fid in rgb_ids:
        rec = records.get(fid)
        if rec is None:
            problems[fid] = "no manifest record"
            continue
        if rec["status"] == "failed":
            problems[fid] = "status failed"
        if len(rec["outputs"]) != 1:
            problems[fid] = f"{len(rec['outputs'])} outputs recorded"
        for rel, digest in rec["outputs"].items():
            listed.add(rel)
            path = out_dir / rel
            if not path.is_file():
                problems[fid] = f"missing output {rel}"
            elif sha256(path) != digest:
                problems[fid] = f"sha256 of {rel} differs from the manifest"
    for path in sorted((out_dir / "x_final").iterdir()):
        rel = f"x_final/{path.name}"
        if rel not in listed:
            problems[path.stem] = f"unlisted output {rel}"
    for fid in sorted(set(records) - set(rgb_ids)):
        problems[fid] = "record for a frame with no RGB input"
    lines = sorted(f"{rel} {d}" for rec in manifest["frames"] for rel, d in rec["outputs"].items())
    return {
        "frames": len(rgb_ids),
        "problems": problems,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "ok": sum(1 for fid in rgb_ids if fid not in problems and records[fid]["status"] == "ok"),
        "fallback": sum(1 for rec in manifest["frames"] if rec["status"] == "fallback"),
        "lsim_gain": _mean(rec["lsim_after"] - rec["lsim_before"] for rec in manifest["frames"]),
    }


def _mean(values) -> float:
    """Mean of the finite values; 0 when there are none."""
    vals = [v for v in values if math.isfinite(v)]
    return sum(vals) / len(vals) if vals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space.

    VmHWM starts afresh at exec. ru_maxrss does not: a child started with
    vfork inherits the parent's high-water mark, so the bench driver's
    memory would show through.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, gate: dict, run_s: float, eval_s: float, workers: int) -> dict:
    summary = tracer.summary()
    funcs, layers, c = summary["functions"], summary["layers"], tracer.counters
    out: dict[str, float] = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if head in funcs and stat in ("busy_s", "self_s", "calls"):
            out[name] = funcs[head][stat]
        elif head in LAYERS and stat in ("busy_s", "self_s"):
            out[name] = layers.get(head, {}).get(stat, 0.0)
        elif stat in ("busy_s", "self_s", "calls"):
            out[name] = 0  # the function never ran on this workload
    frames = [s for s in tracer.spans if s.name == "pipeline.process_frame"]
    self_sum = sum(lay["self_s"] for lay in layers.values())
    out.update({
        "matching.ransac_inlier_ratio": _ratio(c.get("matching.ransac_inliers", 0), c.get("matching.ransac_matches", 0)),
        "matching.homography_failed": c.get("matching.homography_failed", 0),
        "matching.matches_per_pair": _ratio(c.get("matching.matches", 0), c.get("matching.pairs", 0)),
        "matching.known_fraction": _ratio(c.get("matching.known_px", 0), c.get("matching.px", 0)),
        "sampling.pixels_added": c.get("sampling.pixels_added", 0),
        "sampling.known_fraction_before": _ratio(c.get("sampling.known_before_px", 0), c.get("sampling.px", 0)),
        "sampling.known_fraction_after": _ratio(c.get("sampling.known_after_px", 0), c.get("sampling.px", 0)),
        "densify.propagate.iterations": c.get("densify.propagate.iterations", 0),
        "densify.propagate.converged_ratio": _ratio(c.get("densify.propagate.converged", 0), out["densify.propagate.calls"]),
        "densify.levels_ratio": _ratio(c.get("densify.levels_produced", 0), c.get("densify.levels_configured", 0)),
        "fuse_filter.rejected_ratio": _ratio(c.get("fuse_filter.rejected_patches", 0), c.get("fuse_filter.patches", 0)),
        "fuse_filter.lsim_gain": gate["lsim_gain"],
        "imgcore.load_image.bytes": c.get("imgcore.load_image.bytes", 0),
        "imgcore.save_image.bytes": c.get("imgcore.save_image.bytes", 0),
        "pipeline.frame_max_s": max((s.end - s.start for s in frames), default=0.0),
        "pipeline.parallel_efficiency": _ratio(funcs["pipeline.process_frame"]["busy_s"], run_s * workers),
        "pipeline.frames_failed_ratio": _ratio(len(gate["problems"]), gate["frames"]),
        "pipeline.frames_fallback_ratio": _ratio(gate["fallback"], gate["frames"]),
        "trace.run_s": run_s,
        "trace.eval_s": eval_s,
        "trace.self_sum_s": self_sum,
        # self times of all layers must add up to the externally timed run
        # and eval; frames running side by side count once per thread
        "trace.gap_s": self_sum - summary["overlap_s"] - (run_s + eval_s),
        "trace.spans": len(tracer.spans),
    })
    return out


def main(spec: dict) -> dict:
    # called through the module, where the tracer rebinds the names
    from rgbxalign import pipeline

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    bundle_dir, out_dir = Path(spec["bundle"]), Path(spec["out"])
    cfg = pipeline.PipelineConfig(input_dir=str(bundle_dir), output_dir=str(out_dir), **spec["pipeline"])

    start = time.perf_counter()
    pipeline.run_pipeline(cfg)
    run_s = time.perf_counter() - start

    gate = check_outputs(bundle_dir, out_dir)
    result = {"run_s": run_s, "gate": gate}
    # evaluate_run pairs outputs with ground truth by sorted position, so a
    # run with a missing output would be scored against the wrong frames
    if not gate["problems"]:
        # evaluate_run is short, so one call is at the mercy of machine noise;
        # the median of a few back-to-back calls is steadier (traced: one call)
        eval_times = []
        for _ in range(1 if tracer else EVAL_REPEATS):
            start = time.perf_counter()
            agg = pipeline.evaluate_run(bundle_dir, out_dir).aggregate()
            eval_times.append(time.perf_counter() - start)
        result.update(
            eval_s=statistics.median(eval_times),
            psnr_db=agg.psnr,
            ssim=agg.ssim,
            consistency_rmse=agg.consistency,
            # adjacent-frame agreement on the PSNR scale (X is normalized to
            # [0, 1]), like psnr_db against the ground truth
            consistency_db=-20.0 * math.log10(agg.consistency),
        )
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        tracer.uninstall()
        tracer.write(Path(spec["trace_file"]))
        result["layers"] = layer_metrics(
            tracer, gate, run_s, result.get("eval_s", 0.0), cfg.workers
        )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
