"""Pipeline orchestration: determinism, isolation, fallbacks, eval, export, CLI."""

import json
import numpy as np
import pytest

from rgbxalign.cli import main as cli_main
from rgbxalign.colmap import parse_colmap_model
from rgbxalign.densify import DensifyConfig
from rgbxalign.errors import PipelineError
from rgbxalign.imgcore import Image, load_image, save_image
from rgbxalign.pipeline import (
    FrameRecord,
    PipelineConfig,
    RunManifest,
    _load_context,
    _window_ids,
    evaluate_run,
    export_dataset,
    run_pipeline,
)
from rgbxalign.synthbench import SceneConfig, gen_sequence, save_bundle

FAST_DENSIFY = dict(iterations=10)


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bundle"
    save_bundle(gen_sequence(SceneConfig(seed=23, size=128, frames=6, modality="nir-like")), out)
    return out


def fast_config(bench_dir, out_dir, **kw):
    base = dict(
        input_dir=str(bench_dir),
        output_dir=str(out_dir),
        backend="oracle",
        seed=1,
        oracle_count=1500,
        densify=DensifyConfig(**FAST_DENSIFY),
        ransac_iters=200,
    )
    base.update(kw)
    return PipelineConfig(**base)


class TestRun:
    def test_all_frames_ok_and_artifacts(self, bench_dir, tmp_path):
        manifest = run_pipeline(fast_config(bench_dir, tmp_path / "run"))
        assert [f.status for f in manifest.frames] == ["ok"] * 6
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "report.csv").exists()
        for f in manifest.frames:
            assert f.outputs
            rel = next(iter(f.outputs))
            assert (tmp_path / "run" / rel).exists()

    def test_deterministic_hashes(self, bench_dir, tmp_path):
        m1 = run_pipeline(fast_config(bench_dir, tmp_path / "a"))
        m2 = run_pipeline(fast_config(bench_dir, tmp_path / "b"))
        h1 = [f.outputs for f in m1.frames]
        h2 = [f.outputs for f in m2.frames]
        assert h1 == h2
        assert m1.to_json()["frames"] == m2.to_json()["frames"]

    def test_worker_pool_same_hashes(self, bench_dir, tmp_path):
        m1 = run_pipeline(fast_config(bench_dir, tmp_path / "w1"))
        m2 = run_pipeline(fast_config(bench_dir, tmp_path / "w2", workers=3))
        assert [f.outputs for f in m1.frames] == [f.outputs for f in m2.frames]

    def test_empty_input_fails(self, tmp_path):
        with pytest.raises(PipelineError):
            run_pipeline(fast_config(tmp_path / "nothing", tmp_path / "out"))

    def test_stage_isolation(self, bench_dir, tmp_path):
        """Corrupting one frame's X input only changes frames whose window sees it."""
        import shutil

        mutated = tmp_path / "mutated"
        shutil.copytree(bench_dir, mutated)
        victim = 5
        img = load_image(mutated / "x_raw" / f"{victim:04d}.png")
        save_image(Image(np.clip(img.data + 0.2, 0, 1)), mutated / "x_raw" / f"{victim:04d}.png")

        base = run_pipeline(fast_config(bench_dir, tmp_path / "base", backend="classical"))
        changed = run_pipeline(fast_config(mutated, tmp_path / "changed", backend="classical"))
        half = 3
        for n, (a, b) in enumerate(zip(base.frames, changed.frames)):
            if abs(n - victim) > half:
                assert a.outputs == b.outputs, f"frame {n} should be untouched"
        assert base.frames[victim].outputs != changed.frames[victim].outputs

    def test_missing_x_frame_window_shrinks(self, bench_dir, tmp_path):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(bench_dir, partial)
        (partial / "x_raw" / "0005.png").unlink()
        manifest = run_pipeline(fast_config(partial, tmp_path / "out"))
        assert all(f.status in ("ok", "fallback") for f in manifest.frames)
        warned = [w for f in manifest.frames for w in f.warnings if "window" in w]
        assert warned

    def test_windows_follow_frame_ids(self, bench_dir, tmp_path):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(bench_dir, partial)
        (partial / "rgb" / "0003.png").unlink()
        ctx = _load_context(fast_config(partial, tmp_path / "out", window=3))
        windows = {fid: _window_ids(ctx, n) for n, fid in enumerate(ctx.frame_ids)}
        assert windows["0002"] == ["0001", "0002", "0003"]
        assert windows["0004"] == ["0003", "0004", "0005"]
        assert windows["0005"] == ["0004", "0005"]

    def test_warp_moves_the_homography_x_frame(self, bench_dir, tmp_path, monkeypatch):
        """A frame without its own X frame warps the X frame its homography maps to."""
        import shutil

        from rgbxalign import pipeline

        partial = tmp_path / "partial"
        shutil.copytree(bench_dir, partial)
        (partial / "x_raw" / "0003.png").unlink()
        ctx = _load_context(fast_config(partial, tmp_path / "out", window=3))
        seen = {}
        estimate, warp = pipeline.estimate_homography, pipeline.warp_image

        def estimate_spy(ms, **kw):
            seen["homography"] = ms.x_frame
            return estimate(ms, **kw)

        def warp_spy(x, hom, shape):
            seen["warped"] = next(fid for fid, img in ctx.x.items() if img is x)
            return warp(x, hom, shape)

        monkeypatch.setattr(pipeline, "estimate_homography", estimate_spy)
        monkeypatch.setattr(pipeline, "warp_image", warp_spy)
        pipeline.process_frame(ctx, ctx.frame_ids.index("0003"))
        assert seen == {"homography": "0004", "warped": "0004"}

    def test_stray_x_frame_rejected(self, bench_dir, tmp_path):
        import shutil

        extra = tmp_path / "extra"
        shutil.copytree(bench_dir, extra)
        shutil.copyfile(extra / "x_raw" / "0005.png", extra / "x_raw" / "0006.png")
        with pytest.raises(PipelineError, match="0006"):
            run_pipeline(fast_config(extra, tmp_path / "out"))

    def test_classical_run_ignores_ground_truth(self, tmp_path):
        from rgbxalign.errors import RgbxError

        bundle = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=5, size=64, frames=2, modality="nir-like")), bundle)
        meta = bundle / "gt" / "meta"
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()), retired_option=1)))
        manifest = run_pipeline(fast_config(bundle, tmp_path / "classical", backend="classical"))
        assert all(f.status in ("ok", "fallback") for f in manifest.frames)
        with pytest.raises(RgbxError, match="retired_option"):
            run_pipeline(fast_config(bundle, tmp_path / "oracle"))

    def test_file_backend(self, bench_dir, tmp_path):
        from rgbxalign.matching import save_matchset
        from rgbxalign.synthbench import NoiseModel, load_bundle, oracle_match

        bundle = load_bundle(bench_dir)
        import shutil

        inp = tmp_path / "with_matches"
        shutil.copytree(bench_dir, inp)
        (inp / "matches").mkdir()
        for n in range(6):
            for m in range(max(0, n - 1), min(6, n + 2)):
                ms = oracle_match(bundle, (n, m), NoiseModel(), 600, seed=3)
                save_matchset(ms, inp / "matches" / f"{n:04d}_{m:04d}.txt")
        # rewrite frame ids to the zero-padded stems the pipeline uses
        for p in (inp / "matches").glob("*.txt"):
            lines = p.read_text().splitlines()
            a, b = p.stem.split("_")
            lines[0] = f"{a} {b}"
            p.write_text("\n".join(lines) + "\n")
        manifest = run_pipeline(fast_config(inp, tmp_path / "out", backend="file", window=3))
        assert all(f.status in ("ok", "fallback") for f in manifest.frames)

    def test_too_few_confident_matches_fall_back(self, tmp_path):
        """A match set with 3 non-zero confidences costs its frame the
        homography, not the run."""
        from rgbxalign.matching import MatchSet, save_matchset
        from rgbxalign.synthbench import NoiseModel, oracle_match

        bundle = gen_sequence(SceneConfig(seed=7, size=64, frames=3, modality="nir-like"))
        inp = tmp_path / "bundle"
        save_bundle(bundle, inp)
        (inp / "matches").mkdir()
        for n, fid in enumerate(bundle.frame_ids):
            ms = oracle_match(bundle, (n, n), NoiseModel(), 300, seed=3)
            conf = ms.conf.copy()
            if fid == "0001":
                conf[3:] = 0.0
            save_matchset(MatchSet(fid, fid, ms.p_rgb, ms.p_x, conf),
                          inp / "matches" / f"{fid}_{fid}.txt")
        manifest = run_pipeline(fast_config(inp, tmp_path / "out", backend="file", window=1))
        assert [f.frame for f in manifest.frames] == ["0000", "0001", "0002"]
        assert all(f.outputs for f in manifest.frames)
        warned = {f.frame: f.warnings for f in manifest.frames if f.warnings}
        assert list(warned) == ["0001"]
        assert any("homography estimation failed" in w for w in warned["0001"])

    def test_dump_levels(self, bench_dir, tmp_path):
        run_pipeline(fast_config(bench_dir, tmp_path / "out", dump_levels=True))
        assert list((tmp_path / "out" / "levels").glob("*.png"))


class TestEvaluate:
    def test_report_written(self, bench_dir, tmp_path):
        run_pipeline(fast_config(bench_dir, tmp_path / "run"))
        report = evaluate_run(bench_dir, tmp_path / "run")
        assert len(report.frames) == 6
        agg = report.aggregate()
        assert agg.psnr > 20.0
        assert 0.0 <= agg.ssim <= 1.0
        assert agg.consistency < 0.2

    def test_missing_output_keeps_other_scores(self, bench_dir, tmp_path):
        run = tmp_path / "run"
        run_pipeline(fast_config(bench_dir, run, window=3, enable_filtering=False))
        full = {fm.frame: fm for fm in evaluate_run(bench_dir, run).frames}
        (run / "x_final" / "0003.png").unlink()
        partial = {fm.frame: fm for fm in evaluate_run(bench_dir, run).frames}
        assert sorted(partial) == [fid for fid in sorted(full) if fid != "0003"]
        for fid, fm in partial.items():
            assert (fm.psnr, fm.ssim) == (full[fid].psnr, full[fid].ssim), fid
        for fid in ("0000", "0001", "0004"):
            assert partial[fid].consistency == full[fid].consistency, fid
        assert np.isnan(partial["0002"].consistency)

    def test_unknown_frame_rejected(self, bench_dir, tmp_path):
        import shutil

        extra = tmp_path / "extra"
        shutil.copytree(bench_dir, extra)
        shutil.copyfile(extra / "rgb" / "0000.png", extra / "rgb" / "0099.png")
        with pytest.raises(PipelineError):
            run_pipeline(fast_config(extra, tmp_path / "out"))
        (tmp_path / "run" / "x_final").mkdir(parents=True)
        save_image(load_image(bench_dir / "x_gt" / "0000.png"), tmp_path / "run" / "x_final" / "0099.png")
        with pytest.raises(PipelineError):
            evaluate_run(bench_dir, tmp_path / "run")


def minimal_colmap(tmp_path, names):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    (model_dir / "cameras.txt").write_text("1 PINHOLE 128 128 100.0 100.0 64.0 64.0\n")
    lines = []
    for i, name in enumerate(names, start=1):
        lines.append(f"{i} 1.0 0.0 0.0 0.0 0.0 0.0 {float(i)} 1 {name}")
        lines.append("")
    (model_dir / "images.txt").write_text("\n".join(lines) + "\n")
    return model_dir


class TestExport:
    def test_full_export(self, bench_dir, tmp_path):
        manifest = run_pipeline(fast_config(bench_dir, tmp_path / "run"))
        model = parse_colmap_model(minimal_colmap(tmp_path, [f"{n:04d}.png" for n in range(6)]))
        payload = export_dataset(manifest, model, tmp_path / "exp")
        assert len(payload["images"]) == 6
        assert sorted((tmp_path / "exp" / "images").glob("*.png"))
        assert sorted((tmp_path / "exp" / "x").glob("*.png"))
        again = parse_colmap_model(tmp_path / "exp" / "sparse")
        assert again == model

    def test_missing_pose_warns(self, bench_dir, tmp_path):
        manifest = run_pipeline(fast_config(bench_dir, tmp_path / "run"))
        model = parse_colmap_model(minimal_colmap(tmp_path, [f"{n:04d}.png" for n in range(5)]))
        payload = export_dataset(manifest, model, tmp_path / "exp")
        assert len(payload["images"]) == 5
        assert any("no pose" in w for w in payload["warnings"])

    def test_no_overlap_fails(self, bench_dir, tmp_path):
        manifest = run_pipeline(fast_config(bench_dir, tmp_path / "run"))
        model = parse_colmap_model(minimal_colmap(tmp_path, ["other.png"]))
        with pytest.raises(PipelineError):
            export_dataset(manifest, model, tmp_path / "exp")


class TestCli:
    def test_synth_run_eval_export(self, tmp_path):
        bundle = tmp_path / "bundle"
        assert cli_main(["synth", "--out", str(bundle), "--seed", "4", "--size", "128",
                         "--frames", "4"]) == 0
        assert (bundle / "rgb" / "0000.png").exists()
        run_dir = tmp_path / "run"
        code = cli_main(["run", "--input", str(bundle), "--out", str(run_dir),
                         "--backend", "oracle", "--seed", "2", "--oracle-count", "1200"])
        assert code == 0
        assert cli_main(["eval", "--input", str(bundle), "--run", str(run_dir)]) == 0
        assert (run_dir / "metrics.csv").exists()
        model_dir = minimal_colmap(tmp_path, [f"{n:04d}.png" for n in range(4)])
        assert cli_main(["export", "--run", str(run_dir), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp")]) == 0
        assert json.loads((tmp_path / "exp" / "dataset.json").read_text())["images"]

    def test_match_densify_filter_stages(self, tmp_path, rng):
        from scipy.ndimage import gaussian_filter

        tex = gaussian_filter(rng.random((96, 96)), 1.5)
        tex = (tex - tex.min()) / (tex.max() - tex.min())
        save_image(Image(np.stack([tex] * 3, axis=-1)), tmp_path / "rgb.png", bit_depth=8)
        save_image(Image(tex), tmp_path / "x.png", bit_depth=16)
        assert cli_main(["match", "--rgb", str(tmp_path / "rgb.png"), "--x", str(tmp_path / "x.png"),
                         "--out", str(tmp_path / "m.txt")]) == 0
        assert cli_main(["densify", "--rgb", str(tmp_path / "rgb.png"), "--x", str(tmp_path / "x.png"),
                         "--matches", str(tmp_path / "m.txt"),
                         "--out", str(tmp_path / "d.png")]) == 0
        assert cli_main(["filter", "--rgb", str(tmp_path / "rgb.png"), "--xd", str(tmp_path / "d.png"),
                         "--out-prefix", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f_rejected.png").exists()

    def test_config_round_trip(self):
        cfg = PipelineConfig(input_dir="a", output_dir="b", seed=7,
                             densify=DensifyConfig(thresholds=(0.2,)))
        again = PipelineConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again.densify.thresholds == (0.2,)
        assert again.seed == 7

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            PipelineConfig(window=4)

    @pytest.mark.parametrize("cls, kwargs", [
        pytest.param(PipelineConfig, dict(ransac_iters=0), id="ransac_iters"),
        pytest.param(PipelineConfig, dict(oracle_count=0), id="oracle_count"),
        pytest.param(PipelineConfig, dict(oracle_sigma=-1.0), id="oracle_sigma"),
        pytest.param(PipelineConfig, dict(oracle_outliers=-0.1), id="oracle_outliers"),
        pytest.param(PipelineConfig, dict(oracle_rho=1.5), id="oracle_rho"),
        pytest.param(PipelineConfig, dict(workers=0), id="workers"),
    ])
    def test_invalid_config_rejected_up_front(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    @pytest.mark.parametrize("config, named", [
        ({"tau": 0.2}, "tau"),
        ({"densify": {"radii": [1, 2]}}, "densify.radii"),
        ({"densify": [0.2]}, "densify"),
        ({"window": 4}, "window"),
        ({"use_matching_confidence": False}, "use_matching_confidence"),
        ({"oracle_sigma": -1}, "sigma"),
        ({"backend": "classical", "oracle_rho": 1.5}, "fractions"),
        ({"workers": 0}, "workers"),
    ])
    def test_run_rejects_bad_config_file(self, bench_dir, tmp_path, capsys, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli_main(["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"),
                         "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("config, densify", [
        (None, DensifyConfig(use_confidence=False)),
        ({"densify": {"thresholds": [0.2], "iterations": 5}},
         DensifyConfig(thresholds=(0.2,), iterations=5, use_confidence=False)),
    ])
    def test_no_confidence_sets_densify(self, bench_dir, tmp_path, monkeypatch, config, densify):
        from rgbxalign import cli

        ran = []
        monkeypatch.setattr(cli, "run_pipeline", lambda cfg: ran.append(cfg) or RunManifest({}))
        args = ["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"), "--no-confidence"]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "cfg.json")]
        assert cli_main(args) == 0
        assert ran[0].densify == densify

    def test_run_rejects_missing_config_file(self, bench_dir, tmp_path, capsys):
        code = cli_main(["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"),
                         "--config", str(tmp_path / "missing.json")])
        assert code == 2 and "missing.json" in capsys.readouterr().err


def test_manifest_failed_count():
    m = RunManifest(config={}, frames=[FrameRecord("0", status="ok"),
                                       FrameRecord("1", status="failed")])
    assert m.failed == 1
