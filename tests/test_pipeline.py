"""Pipeline orchestration: determinism, isolation, fallbacks, eval, export, CLI."""

import contextlib
import hashlib
import json
import logging
import math
import re
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rgbxalign import pipeline
from rgbxalign.cli import main as cli_main
from rgbxalign.colmap import parse_colmap_model
from rgbxalign.densify import DensifyConfig
from rgbxalign.errors import PipelineError
from rgbxalign.imgcore import Image, load_image, save_image
from rgbxalign.matching import MatchSet
from rgbxalign.pipeline import (
    FrameRecord,
    PipelineConfig,
    RunManifest,
    _load_context,
    _window,
    evaluate_run,
    export_dataset,
    run_pipeline,
)
from rgbxalign.synthbench import SceneConfig, gen_sequence, save_bundle

FAST_DENSIFY = dict(iterations=10)


def _edit_scene_config(bundle, edit):
    """Rewrite the config member of a bundle's gt/scene.npz as edit(config)."""
    scene = bundle / "gt" / "scene.npz"
    with np.load(scene) as npz:
        members = {k: npz[k] for k in npz.files}
    np.savez(scene, **dict(members, config=np.array(edit(str(members["config"])))))


def _edit_lines(edit):
    """A damage of a file that changes its lines in place by `edit`."""
    def damage(path):
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
    return damage


def _first_match_ending(field):
    """A damage of a match file that ends its first match in `field`."""
    def edit(lines):
        lines[2] = " ".join(lines[2].split()[:4] + [field])
    return _edit_lines(edit)


def _manifest_of(record):
    """A manifest's JSON text with a valid config echo and one frame record."""
    return json.dumps({"config": {"input_dir": "in", "output_dir": "run"}, "frames": [record]})


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
        windows = {fid: _window(ctx, ctx.sequence.index(fid))[1] for fid in ctx.frame_ids}
        assert windows["0002"] == ["0001", "0002", "0003"]
        assert windows["0004"] == ["0003", "0004", "0005"]
        assert windows["0005"] == ["0004", "0005"]

    def test_warp_moves_the_homography_x_frame(self, bench_dir, tmp_path, monkeypatch):
        """A frame without its own X frame warps the X frame its homography maps to."""
        import shutil

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
        _edit_scene_config(bundle, lambda c: json.dumps(dict(json.loads(c), retired_option=1)))
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
        manifest = run_pipeline(fast_config(inp, tmp_path / "out", backend="file", window=3))
        assert all(f.status in ("ok", "fallback") for f in manifest.frames)

    @staticmethod
    def _bad_match_file_runs(bench_dir, tmp_path, damage):
        """File-backend runs with 0002_0003.txt changed by `damage` (of its
        path), and with that file absent: (bad, absent) frame records. Only
        frame 0002's window uses the file."""
        import shutil

        from rgbxalign.matching import save_matchset
        from rgbxalign.synthbench import NoiseModel, load_bundle, oracle_match

        bundle = load_bundle(bench_dir)
        runs = {}
        for case in ("bad", "absent"):
            inp = tmp_path / case
            shutil.copytree(bench_dir, inp)
            (inp / "matches").mkdir()
            for n, fid in enumerate(bundle.frame_ids):
                for m in range(max(0, n - 1), min(bundle.frames, n + 2)):
                    ms = oracle_match(bundle, (n, m), NoiseModel(), 600, seed=3)
                    save_matchset(ms, inp / "matches" / f"{fid}_{m:04d}.txt")
            bad = inp / "matches" / "0002_0003.txt"
            if case == "bad":
                damage(bad)
            else:
                bad.unlink()
            runs[case] = run_pipeline(fast_config(inp, tmp_path / f"out-{case}", backend="file",
                                                  window=3))
        return runs["bad"].frames, runs["absent"].frames

    def test_nan_confidence_fails_only_its_frame(self, bench_dir, tmp_path):
        """A match file with a NaN confidence costs its frame, not the run:
        every other frame writes what it writes without that file."""
        nan, absent = self._bad_match_file_runs(bench_dir, tmp_path, _first_match_ending("nan"))
        assert [f.frame for f in nan] == [f.frame for f in absent]
        assert nan[2].status == "failed" and not nan[2].outputs
        assert any("confidence" in w for w in nan[2].warnings)
        for a, b in zip(nan, absent):
            if a.frame != "0002":
                assert a.status != "failed" and a.outputs == b.outputs, a.frame

    def test_non_numeric_match_field_fails_only_its_frame(self, bench_dir, tmp_path):
        for damage, warning in (
            (_first_match_ending("abc"), "0002_0003.txt:3: non-numeric field"),
            (_edit_lines(lambda lines: lines.__setitem__(1, "-1")),
             "0002_0003.txt:2: negative match count"),
            (lambda path: path.unlink() or path.mkdir(), "0002_0003.txt: cannot read"),
        ):
            out = tmp_path / warning.split()[-1]
            bad, absent = self._bad_match_file_runs(bench_dir, out, damage)
            assert [f.frame for f in bad] == [f.frame for f in absent]
            assert bad[2].status == "failed" and not bad[2].outputs
            assert any(warning in w for w in bad[2].warnings), warning
            for a, b in zip(bad, absent):
                if a.frame != "0002":
                    assert a.status != "failed" and a.outputs == b.outputs, a.frame

    @pytest.mark.parametrize("damage", [
        lambda v: v.write_bytes(v.read_bytes()[: len(v.read_bytes()) // 2]),
        lambda v: v.write_bytes(v.read_bytes()[:20]),
        lambda v: v.write_bytes(b"P5\nabc 4 255\n"),
        lambda v: v.write_bytes(b"P2\n2 2 255\n1 2 x 4\n"),
        lambda v: v.write_bytes(b"P5\n0 0 255\n"),
        lambda v: v.with_name(v.name + ".units").write_text("scale nan\n"),
        lambda v: v.with_name(v.name + ".units").write_text("units celsius\noffset inf\n"),
        lambda v: v.with_name(v.name + ".units").write_bytes(b"\xff\xfe"),
        lambda v: v.unlink() or v.mkdir(),
        lambda v: v.with_name(v.name + ".units").mkdir(),
    ], ids=["half", "header", "pgm-header", "pgm-sample", "empty", "nan-scale", "inf-offset",
            "sidecar-bytes", "directory", "sidecar-directory"])
    def test_unreadable_x_frame_counts_as_missing(self, bench_dir, tmp_path, damage):
        import shutil

        runs = {}
        for case in ("truncated", "absent"):
            inp = tmp_path / case
            shutil.copytree(bench_dir, inp)
            victim = inp / "x_raw" / "0003.png"
            if case == "truncated":
                damage(victim)
            else:
                victim.unlink()
            runs[case] = run_pipeline(fast_config(inp, tmp_path / f"out-{case}", window=3))
        truncated, absent = runs["truncated"].frames, runs["absent"].frames
        assert [f.outputs for f in truncated] == [f.outputs for f in absent]
        assert all(f.status != "failed" for f in truncated)
        warned = [f.frame for f in truncated
                  if any("X frame 0003 unreadable" in w for w in f.warnings)]
        assert warned == ["0002", "0003", "0004"]

    def test_unreadable_rgb_frame_fails_only_itself(self, bench_dir, tmp_path):
        import shutil

        damages = {
            "truncated": lambda v: v.write_bytes(v.read_bytes()[: len(v.read_bytes()) // 2]),
            "directory": lambda v: v.unlink() or v.mkdir(),
            "absent": lambda v: v.unlink(),
        }
        runs = {}
        for case, damage in damages.items():
            inp = tmp_path / case
            shutil.copytree(bench_dir, inp)
            damage(inp / "rgb" / "0002.png")
            frames = run_pipeline(fast_config(inp, tmp_path / f"out-{case}")).frames
            runs[case] = {f.frame: f for f in frames}
        absent = runs.pop("absent")
        for case, got in runs.items():
            assert sorted(got) == [f"{n:04d}" for n in range(6)], case
            bad = got.pop("0002")
            assert bad.status == "failed" and not bad.outputs, case
            assert any("unreadable RGB frame" in w for w in bad.warnings), case
            assert sorted(got) == sorted(absent), case
            for fid, rec in got.items():
                assert rec.status != "failed" and rec.outputs == absent[fid].outputs, (case, fid)

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

    def test_collapsed_x_matches_fit_a_homography(self, tmp_path, capsys):
        """Matches whose X coordinates all lie within 1e-3 px of one point
        give a model, not a ValueError traceback with no manifest."""
        from rgbxalign.matching import save_matchset

        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=7, size=64, frames=2, modality="nir-like")), inp)
        (inp / "matches").mkdir()
        for n, fid in enumerate(["0000", "0001"]):
            rng = np.random.default_rng(n)
            src = rng.uniform(0, 63, (50, 2))
            dst = 30 + rng.normal(0, 1e-3, (50, 2))
            save_matchset(MatchSet(fid, fid, src, dst, np.ones(50)),
                          inp / "matches" / f"{fid}_{fid}.txt")
        out = tmp_path / "out"
        code = cli_main(["run", "--input", str(inp), "--out", str(out), "--backend", "file",
                         "--window", "1"])
        assert code == 0, capsys.readouterr().err
        manifest = RunManifest.read(out / "manifest.json")
        assert [f.status != "failed" and bool(f.outputs) for f in manifest.frames] == [True] * 2
        assert not any("homography" in w for f in manifest.frames for w in f.warnings)

    @pytest.mark.parametrize("backend", ["classical", "oracle"])
    def test_physical_units_carried_to_the_output(self, tmp_path, backend):
        """X frames in celsius come out in celsius, as the affine image of the
        same run on the raw integers read as normalized values."""
        import shutil

        plain = tmp_path / "plain"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=3)), plain)
        celsius = tmp_path / "celsius"
        shutil.copytree(plain, celsius)
        for x in (celsius / "x_raw").glob("*.png"):
            x.with_name(x.name + ".units").write_text("units celsius\nscale 0.001\noffset 10\n")
        runs = {}
        for inp in (plain, celsius):
            out = tmp_path / f"out-{inp.name}"
            frames = run_pipeline(fast_config(inp, out, backend=backend, window=3)).frames
            assert [f.status for f in frames] == ["ok"] * 3, [f.warnings for f in frames]
            runs[inp.name] = [load_image(out / next(iter(f.outputs))) for f in frames]
        for a, b in zip(runs["plain"], runs["celsius"]):
            assert (a.units, b.units) == ("normalized", "celsius")
            # raw / 65535 against raw * 0.001 + 10, within a quantization step
            assert np.abs(b.data - (65.535 * a.data + 10.0)).max() < 2e-3

    def test_x_frames_disagreeing_on_units_fail_their_windows(self, tmp_path):
        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=4)), inp)
        (inp / "x_raw" / "0003.png.units").write_text("units celsius\nscale 0.001\noffset 10\n")
        frames = run_pipeline(fast_config(inp, tmp_path / "out", window=3)).frames
        assert [f.status for f in frames] == ["ok", "ok", "failed", "failed"]
        assert "X frames disagree on units (0001 normalized, 0002 normalized, 0003 celsius)" in (
            frames[2].warnings)

    def test_failed_frame_keeps_its_warnings(self, tmp_path, caplog):
        """A frame failed by an RgbxError keeps the warnings gathered before
        it, and the log gets one line per failed frame, not a traceback."""
        import shutil

        plain = tmp_path / "plain"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=4, modality="nir-like")), plain)
        mixed = tmp_path / "mixed"
        shutil.copytree(plain, mixed)
        (mixed / "x_raw" / "0003.png.units").write_text("units celsius\nscale 0.001\noffset 10\n")
        base = run_pipeline(fast_config(plain, tmp_path / "base", backend="classical", window=3))
        with caplog.at_level("INFO", logger="rgbxalign"):
            frames = run_pipeline(
                fast_config(mixed, tmp_path / "out", backend="classical", window=3)
            ).frames
        assert [f.status for f in frames[2:]] == ["failed", "failed"]
        assert frames[3].warnings == [
            "window shrunk to 2 frames",
            "X frames disagree on units (0002 normalized, 0003 celsius)",
        ]
        assert [f.outputs for f in frames[:2]] == [f.outputs for f in base.frames[:2]]
        failed = [r for r in caplog.records if "failed" in r.getMessage()]
        assert [r.getMessage().split(":")[0] for r in failed] == [
            "frame 0002 failed", "frame 0003 failed"]
        assert not any(r.exc_info for r in caplog.records)

    @pytest.mark.parametrize("sensor", ["x_raw", "rgb"])
    def test_oracle_frame_of_another_size_fails_only_itself(self, tmp_path, sensor):
        """The oracle's matches lie on the bundle's raster, so an X frame of
        another size is treated as missing and an RGB one fails its frame."""
        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=3, modality="nir-like")), inp)
        victim = inp / sensor / "0001.png"
        img = load_image(victim)
        save_image(Image(img.data[:48], units=img.units), victim, bit_depth=16)
        frames = run_pipeline(fast_config(inp, tmp_path / "out", window=3)).frames
        why = "48x64, the bundle's frames are 64x64"
        assert [frames[0].status, frames[2].status] == ["ok", "ok"]
        if sensor == "x_raw":
            assert frames[1].status == "ok"
            assert [f.warnings for f in frames] == [
                [f"X frame 0001 unreadable, treated as missing ({why})",
                 f"window shrunk to {size} frames"] for size in (1, 2, 1)]
        else:
            assert frames[1].status == "failed" and not frames[1].outputs
            assert frames[1].warnings == [f"unreadable RGB frame ({why})"]

    @pytest.mark.parametrize("backend", ["oracle", "classical"])
    def test_colour_x_frame_counts_as_missing(self, tmp_path, backend):
        import shutil

        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=4, modality="nir-like")), inp)
        shutil.copyfile(inp / "rgb" / "0001.png", inp / "x_raw" / "0001.png")
        frames = run_pipeline(fast_config(inp, tmp_path / "out", window=3, backend=backend)).frames
        assert [f.status for f in frames if f.status == "failed"] == []
        why = "3 channels, X frames must be single-channel"
        warning = f"X frame 0001 unreadable, treated as missing ({why})"
        assert [warning in f.warnings for f in frames] == [True, True, True, False]

    def test_fallback_ladder(self, tmp_path):
        """On 24 x 48 frames, confident matches densify but cannot be filtered
        (fused output); matches below every threshold cannot be densified
        (homography-warp output). A mis-sized area mask is named as such."""
        from rgbxalign.matching import save_matchset

        inp = tmp_path / "in"
        for sub in ("rgb", "x", "masks", "matches"):
            (inp / sub).mkdir(parents=True)
        rng = np.random.default_rng(0)
        rows, cols = np.meshgrid(np.arange(2, 22, 3.0), np.arange(2, 46, 3.0), indexing="ij")
        pts = np.column_stack([rows.ravel(), cols.ravel()])
        for fid, conf in (("0000", 0.9), ("0001", 0.05)):
            save_image(Image(rng.random((24, 48, 3))), inp / "rgb" / f"{fid}.png")
            save_image(Image(rng.random((24, 48))), inp / "x" / f"{fid}.png")
            save_matchset(MatchSet(fid, fid, pts, pts, np.full(len(pts), conf)),
                          inp / "matches" / f"{fid}_{fid}.txt")
        save_image(Image(np.ones((48, 24))), inp / "masks" / "0000.png", bit_depth=8)
        frames = run_pipeline(fast_config(inp, tmp_path / "out", backend="file", window=1)).frames
        fused, warp = frames
        assert (fused.status, fused.fallback) == ("fallback", "fused")
        assert any(w.startswith("filtering stage failed")
                   and "smaller than patch size 32" in w for w in fused.warnings)
        assert "area mask is 48x24, the frame 24x48; area sampling skipped" in fused.warnings
        assert (warp.status, warp.fallback) == ("fallback", "homography-warp")
        assert any("all confidence levels are empty" in w for w in warp.warnings)
        for f in frames:
            rel = next(iter(f.outputs))
            assert len(f.outputs[rel]) == 64 and (tmp_path / "out" / rel).is_file()

    def test_frame_under_9px_wide_gets_the_warp(self, tmp_path):
        """Confident matches cannot densify a 30 x 8 frame: the affinity
        offsets need 9 columns, so it gets the homography-warp output."""
        from rgbxalign.matching import save_matchset

        inp = tmp_path / "in"
        for sub in ("rgb", "x", "matches"):
            (inp / sub).mkdir(parents=True)
        rng = np.random.default_rng(0)
        rows, cols = np.meshgrid(np.arange(1, 29, 3.0), np.arange(1, 8, 2.0), indexing="ij")
        pts = np.column_stack([rows.ravel(), cols.ravel()])
        save_image(Image(rng.random((30, 8, 3))), inp / "rgb" / "0000.png")
        save_image(Image(rng.random((30, 8))), inp / "x" / "0000.png")
        save_matchset(MatchSet("0000", "0000", pts, pts, np.full(len(pts), 0.9)),
                      inp / "matches" / "0000_0000.txt")
        (rec,) = run_pipeline(fast_config(inp, tmp_path / "out", backend="file", window=1)).frames
        assert (rec.status, rec.fallback) == ("fallback", "homography-warp")
        assert any("guidance image too small" in w for w in rec.warnings)

    def test_unreadable_area_mask_skips_area_sampling(self, bench_dir, tmp_path):
        import shutil

        inp = tmp_path / "in"
        shutil.copytree(bench_dir, inp)
        (inp / "masks" / "0001.png").write_bytes(b"garbage")
        base = run_pipeline(fast_config(bench_dir, tmp_path / "base")).frames
        got = run_pipeline(fast_config(inp, tmp_path / "out")).frames
        assert [f.status for f in got] == ["ok"] * 6
        assert any(w.startswith("area mask unreadable") and w.endswith("area sampling skipped")
                   for w in got[1].warnings)
        for a, b in zip(got, base):
            if a.frame != "0001":
                assert a.outputs == b.outputs, a.frame

    def test_window_without_x_frames_fails_alone(self, tmp_path):
        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=3, modality="nir-like")), inp)
        (inp / "x_raw" / "0001.png").unlink()
        frames = run_pipeline(fast_config(inp, tmp_path / "out", window=1)).frames
        assert [f.status for f in frames] == ["ok", "failed", "ok"]
        assert frames[1].warnings == [
            "window shrunk to 0 frames", "no X frames available in window"]
        assert not frames[1].outputs

    def test_level_without_surviving_pixels_is_named(self, tmp_path):
        """Matches all below 0.9 keep no pixel at that threshold: the frame is
        densified from its other level and says which one it left out."""
        from rgbxalign.matching import save_matchset
        from rgbxalign.synthbench import NoiseModel, oracle_match

        bundle = gen_sequence(SceneConfig(seed=3, size=64, frames=2, modality="nir-like"))
        inp = tmp_path / "bundle"
        save_bundle(bundle, inp)
        (inp / "matches").mkdir()
        for n, fid in enumerate(bundle.frame_ids):
            ms = oracle_match(bundle, (n, n), NoiseModel(), 600, seed=3)
            save_matchset(MatchSet(fid, fid, ms.p_rgb, ms.p_x, np.full(len(ms), 0.5)),
                          inp / "matches" / f"{fid}_{fid}.txt")
        cfg = fast_config(inp, tmp_path / "out", backend="file", window=1,
                          densify=DensifyConfig(thresholds=(0.15, 0.9), **FAST_DENSIFY))
        frames = run_pipeline(cfg).frames
        assert [f.status for f in frames] == ["ok", "ok"]
        for f in frames:
            assert "levels omitted (no surviving pixels): [0.9]" in f.warnings, f.warnings

    @pytest.mark.parametrize("command", ["run", "eval", "export"])
    def test_two_files_for_one_frame_refused(self, tmp_path, capsys, command):
        """A frame id is a file's stem, so 0001.png next to 0001.pgm names one
        frame twice; the command stops and names both, not keeping one."""
        import shutil

        inp, run = tmp_path / "bundle", tmp_path / "run"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=2, modality="nir-like")), inp)
        args = {
            "run": ["run", "--input", str(inp), "--out", str(run)],
            "eval": ["eval", "--input", str(inp), "--run", str(run)],
            "export": ["export", "--run", str(run), "--out", str(tmp_path / "exp"), "--model",
                       str(minimal_colmap(tmp_path, ["0000.png", "0001.png"]))],
        }[command]
        if command != "run":
            run_pipeline(fast_config(inp, run, window=1))
        twice = {"run": inp / "x_raw", "eval": run / "x_final", "export": inp / "rgb"}[command]
        shutil.copyfile(twice / "0001.png", twice / "0001.pgm")
        capsys.readouterr()
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: two files for frame 0001: ")
        assert str(twice / "0001.pgm") in err and str(twice / "0001.png") in err

    def test_dump_levels(self, bench_dir, tmp_path):
        run_pipeline(fast_config(bench_dir, tmp_path / "out", dump_levels=True))
        assert list((tmp_path / "out" / "levels").glob("*.png"))


def _blas_counts():
    """Each mapped OpenBLAS pool's thread count, by library."""
    return {name: get() for name, get, _ in pipeline._openblas_pools()}


class TestBlasPin:
    @pytest.fixture
    def two_threads(self):
        """Each OpenBLAS pool at 2 threads, so that a pin to 1 shows; their
        own counts come back afterwards."""
        pools = pipeline._openblas_pools()
        if not pools:
            pytest.skip("no OpenBLAS pool is mapped into the process")
        saved = [(put, get()) for _, get, put in pools]
        for put, _ in saved:
            put(2)
        earlier = _blas_counts()
        if set(earlier.values()) != {2}:
            pytest.skip(f"OpenBLAS pools would not take 2 threads: {earlier}")
        yield earlier
        for put, count in saved:
            put(count)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pools_at_one_thread_inside_a_run(self, bench_dir, tmp_path, monkeypatch, caplog,
                                              two_threads, workers):
        seen = []
        real = pipeline.compute_affinities

        def spy(rgb):
            seen.append(_blas_counts())
            return real(rgb)

        monkeypatch.setattr(pipeline, "compute_affinities", spy)
        with caplog.at_level(logging.DEBUG, logger="rgbxalign.pipeline"):
            run_pipeline(fast_config(bench_dir, tmp_path / "run", workers=workers))
        assert len(seen) == 6
        assert all(counts == dict.fromkeys(two_threads, 1) for counts in seen)
        assert _blas_counts() == two_threads
        pinned = [r.getMessage() for r in caplog.records if "BLAS held" in r.getMessage()]
        assert len(pinned) == 1 and all(name in pinned[0] for name in two_threads)

    def test_restored_after_a_failed_run(self, tmp_path, two_threads):
        with pytest.raises(PipelineError):
            run_pipeline(fast_config(tmp_path / "nothing", tmp_path / "out"))
        assert _blas_counts() == two_threads

    def test_nested_pins_restore_at_the_last_exit(self, two_threads):
        pinned = dict.fromkeys(two_threads, 1)
        with pipeline._one_blas_thread as outer:
            assert set(outer) == set(two_threads) and _blas_counts() == pinned
            with pipeline._one_blas_thread as inner:
                assert inner == outer
            assert _blas_counts() == pinned
        assert _blas_counts() == two_threads

    def test_pins_from_two_threads_restore_at_the_last_exit(self, two_threads):
        pinned = dict.fromkeys(two_threads, 1)
        entered, release = threading.Event(), threading.Event()
        seen = []

        def hold():
            with pipeline._one_blas_thread:
                entered.set()
                release.wait(timeout=30)
                seen.append(_blas_counts())

        other = threading.Thread(target=hold)
        other.start()
        assert entered.wait(timeout=30)
        with pipeline._one_blas_thread:
            release.set()
            other.join(timeout=30)
            assert not other.is_alive()
            # the other thread left first, so the pools stay pinned
            assert _blas_counts() == pinned
        assert seen == [pinned]
        assert _blas_counts() == two_threads

    def test_unpinned_run_writes_the_same_records(self, bench_dir, tmp_path, monkeypatch,
                                                  two_threads):
        pinned = run_pipeline(fast_config(bench_dir, tmp_path / "pinned"))
        monkeypatch.setattr(pipeline, "_one_blas_thread", contextlib.nullcontext(()))
        free = run_pipeline(fast_config(bench_dir, tmp_path / "free"))
        assert pinned.to_json()["frames"] == free.to_json()["frames"]


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
        save_image(load_image(bench_dir / "x_raw" / "0000.png"), tmp_path / "run" / "x_final" / "0099.png")
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

    @pytest.mark.parametrize("damage", ["deleted", "altered"])
    def test_bad_output_stops_export_before_writing(self, bench_dir, tmp_path, damage):
        manifest = run_pipeline(fast_config(bench_dir, tmp_path / "run"))
        model = parse_colmap_model(minimal_colmap(tmp_path, [f"{n:04d}.png" for n in range(6)]))
        victim = tmp_path / "run" / "x_final" / "0003.png"
        if damage == "deleted":
            victim.unlink()
        else:
            victim.write_bytes((tmp_path / "run" / "x_final" / "0000.png").read_bytes())
        with pytest.raises(PipelineError, match="frame 0003: output .*0003.png"):
            export_dataset(manifest, model, tmp_path / "exp")
        assert not (tmp_path / "exp").exists()

    def test_export_from_another_directory(self, bench_dir, tmp_path, monkeypatch, caplog):
        import shutil

        (tmp_path / "a").mkdir()
        (tmp_path / "c").mkdir()
        shutil.copytree(bench_dir, tmp_path / "a" / "b")
        model_dir = minimal_colmap(tmp_path, [f"{n:04d}.png" for n in range(6)])
        monkeypatch.chdir(tmp_path / "a")
        run_pipeline(fast_config("b", "run"))
        monkeypatch.chdir(tmp_path / "c")
        assert cli_main(["export", "--run", "../a/run", "--model", str(model_dir),
                         "--out", "exp"]) == 0
        assert len(list((tmp_path / "c" / "exp" / "images").glob("*.png"))) == 6
        # with the input gone, the error and the warnings name the cause
        shutil.rmtree(tmp_path / "a" / "b" / "rgb")
        manifest = RunManifest.read(tmp_path / "a" / "run" / "manifest.json")
        with pytest.raises(PipelineError, match="6 frames lack their RGB source"):
            export_dataset(manifest, parse_colmap_model(model_dir), "exp2")
        assert caplog.text.count("missing RGB source") == 6
        assert not (tmp_path / "c" / "exp2").exists()

    def test_failed_frame_not_exported(self, tmp_path):
        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=3, modality="nir-like")), inp)
        (inp / "x_raw" / "0001.png").unlink()
        manifest = run_pipeline(fast_config(inp, tmp_path / "run", window=1))
        assert [f.status for f in manifest.frames] == ["ok", "failed", "ok"]
        model = parse_colmap_model(minimal_colmap(tmp_path, [f"{n:04d}.png" for n in range(3)]))
        payload = export_dataset(manifest, model, tmp_path / "exp")
        assert payload["warnings"] == ["frame 0001: no output to export"]
        assert sorted(v["name"] for v in payload["images"].values()) == ["0000.png", "0002.png"]
        assert sorted(p.name for p in (tmp_path / "exp" / "x").iterdir()) == ["0000.png", "0002.png"]

    def test_names_with_a_directory_exported(self, tmp_path):
        """COLMAP image names may hold a directory: cam0/0000.png."""
        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=3, modality="nir-like")), inp)
        run_pipeline(fast_config(inp, tmp_path / "run", window=1))
        names = [f"cam0/{n:04d}.png" for n in range(3)]
        model_dir = minimal_colmap(tmp_path, names)
        assert cli_main(["export", "--run", str(tmp_path / "run"), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp"), "--name-format", "cam0/{frame}.png"]) == 0
        exported = sorted(p.name for p in (tmp_path / "exp" / "images" / "cam0").iterdir())
        assert exported == ["0000.png", "0001.png", "0002.png"]
        payload = json.loads((tmp_path / "exp" / "dataset.json").read_text())
        assert sorted(v["name"] for v in payload["images"].values()) == names

    def test_units_sidecar_exported(self, tmp_path):
        """An X output in physical units goes out with its `.units` file."""
        inp = tmp_path / "bundle"
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=2, modality="nir-like")), inp)
        for x in (inp / "x_raw").glob("*.png"):
            x.with_name(x.name + ".units").write_text("units celsius\nscale 0.001\noffset 10\n")
        manifest = run_pipeline(fast_config(inp, tmp_path / "run", window=1))
        assert [f.status for f in manifest.frames] == ["ok", "ok"]
        model = parse_colmap_model(minimal_colmap(tmp_path, ["0000.png", "0001.png"]))
        export_dataset(manifest, model, tmp_path / "exp")
        for fid in ("0000", "0001"):
            exported = tmp_path / "exp" / "x" / f"{fid}.png"
            sidecar = exported.with_name(exported.name + ".units")
            assert sidecar.read_bytes() == (
                tmp_path / "run" / "x_final" / f"{fid}.png.units").read_bytes()
            assert load_image(exported).units == "celsius"

    def test_pgm_rgb_sources_exported(self, tmp_path):
        """`export` finds the RGB sources by the rule `run` found them by."""
        from rgbxalign.imgcore import gray_array

        inp = tmp_path / "in"
        save_bundle(gen_sequence(SceneConfig(seed=5, size=64, frames=2)), inp)
        for png in sorted((inp / "rgb").glob("*.png")):
            save_image(Image(gray_array(load_image(png))), png.with_suffix(".pgm"), bit_depth=8)
            png.unlink()
        manifest = run_pipeline(fast_config(inp, tmp_path / "run"))
        assert [f.status for f in manifest.frames] == ["ok", "ok"]
        model_dir = minimal_colmap(tmp_path, ["0000.pgm", "0001.pgm"])
        assert cli_main(["export", "--run", str(tmp_path / "run"), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp"), "--name-format", "{frame}.pgm"]) == 0
        for fid in ("0000", "0001"):
            exported = tmp_path / "exp" / "images" / f"{fid}.pgm"
            assert exported.read_bytes() == (inp / "rgb" / f"{fid}.pgm").read_bytes()


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
        # 96 x 100 tiles into the same 3 x 3 patches as the 96 x 96 RGB frame
        save_image(Image(np.pad(tex, ((0, 0), (0, 4)), mode="edge")), tmp_path / "wide.png")
        assert cli_main(["filter", "--rgb", str(tmp_path / "rgb.png"),
                         "--xd", str(tmp_path / "wide.png"),
                         "--out-prefix", str(tmp_path / "w")]) == 2

    def test_filter_rejects_colour_x(self, tmp_path, rng, capsys):
        save_image(Image(rng.random((64, 64, 3))), tmp_path / "rgb.png", bit_depth=8)
        code = cli_main(["filter", "--rgb", str(tmp_path / "rgb.png"),
                         "--xd", str(tmp_path / "rgb.png"), "--out-prefix", str(tmp_path / "f")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "synth", "export"])
    def test_out_that_is_a_file_reported(self, bench_dir, tmp_path, rng, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        if command == "run":
            args = ["run", "--input", str(bench_dir)]
        elif command == "synth":
            args = ["synth", "--size", "64", "--frames", "1"]
        else:
            # a one-frame run written by hand, with its RGB source and pose
            for sub in ("in/rgb", "run/x_final"):
                (tmp_path / sub).mkdir(parents=True)
            save_image(Image(rng.random((8, 8, 3))), tmp_path / "in" / "rgb" / "0000.png")
            save_image(Image(rng.random((8, 8))), tmp_path / "run" / "x_final" / "0000.png")
            digest = hashlib.sha256((tmp_path / "run" / "x_final" / "0000.png").read_bytes())
            RunManifest({"input_dir": str(tmp_path / "in"), "output_dir": str(tmp_path / "run")},
                        [FrameRecord("0000", outputs={"x_final/0000.png": digest.hexdigest()})]
                        ).write(tmp_path / "run" / "manifest.json")
            args = ["export", "--run", str(tmp_path / "run"),
                    "--model", str(minimal_colmap(tmp_path, ["0000.png"]))]
        assert cli_main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

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
        pytest.param(PipelineConfig, dict(seed=-1), id="seed"),
        pytest.param(PipelineConfig, dict(oracle_count=0), id="oracle_count"),
        pytest.param(PipelineConfig, dict(oracle_sigma=-1.0), id="oracle_sigma"),
        pytest.param(PipelineConfig, dict(oracle_sigma=math.nan), id="oracle_sigma-nan"),
        pytest.param(PipelineConfig, dict(oracle_sigma=math.inf), id="oracle_sigma-inf"),
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
        ({"densify": {"thresholds": []}}, "thresholds"),
        ({"seed": -1}, "seed"),
        ({"densify": {"thresholds": [0.3, 0.3]}}, "strictly ascending"),
        ({"oracle_sigma": math.nan}, "sigma"),
        pytest.param({"densify": {"tol": 1e-4}}, "unknown config keys: densify.tol",
                     id="config12-densify.tol"),
    ])
    def test_run_rejects_bad_config_file(self, bench_dir, tmp_path, capsys, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli_main(["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"),
                         "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("config, named", [
        ({"seed": 1.5}, "seed"),
        ({"window": 3.0}, "window"),
        ({"oracle_count": 100.5}, "oracle_count"),
        ({"densify": {"iterations": 2.5}}, "iterations"),
        ({"enable_filtering": "no"}, "enable_filtering"),
        ({"densify": {"use_confidence": "false"}}, "use_confidence"),
        ({"ransac_iters": 500}, "unknown config keys: ransac_iters"),
        ({"densify": {"thresholds": [0.15, 0.3, 0.3]}}, "strictly ascending"),
        ({"oracle_sigma": math.nan}, "sigma"),
    ], ids=["seed", "window", "oracle_count", "iterations", "enable_filtering",
            "use_confidence", "ransac_iters", "repeated-thresholds", "sigma-nan"])
    def test_bad_config_value_named(self, config, named):
        with pytest.raises(PipelineError, match=named):
            PipelineConfig.from_json(config)

    def test_int_for_a_real_field_accepted(self):
        assert PipelineConfig.from_json({"oracle_sigma": 1}).oracle_sigma == 1

    def test_run_rejects_config_value_of_wrong_type(self, bench_dir, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"enable_filtering": "no"}))
        code = cli_main(["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"),
                         "--config", str(tmp_path / "cfg.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: ") and "enable_filtering" in err

    def test_readme_lists_the_config_fields(self):
        """The README's `--config` key list names every settable field, and only those."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        start = readme.index("A `--config` file is a JSON object of `PipelineConfig` fields:")
        listed = set(re.findall(r"`([^`]+)`", readme[start : readme.index(";", start)]))
        listed -= {"--config", "PipelineConfig"}
        settable = {f.name for f in fields(PipelineConfig)} - {"input_dir", "output_dir"}
        assert listed == settable | {f.name for f in fields(DensifyConfig)}

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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_run_rejects_bad_oracle_sigma_flag(self, bench_dir, tmp_path, capsys, sigma):
        code = cli_main(["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"),
                         f"--oracle-sigma={sigma}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: ") and "sigma" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, config", [
        ([], '{"seed": 0, "size": 256, "frames": 10, "modality": "thermal-like", "layers": 2, '
             '"layer_disparities": [0.0, 8.0], "homogeneous_fraction": 0.15, '
             '"corrupt_patch_fraction": 0.0}'),
        (["--layers", "3"],
         '{"seed": 0, "size": 256, "frames": 10, "modality": "thermal-like", "layers": 3, '
         '"layer_disparities": [0.0, 4.0, 8.0], "homogeneous_fraction": 0.15, '
         '"corrupt_patch_fraction": 0.0}'),
        (["--layers", "1"],
         '{"seed": 0, "size": 256, "frames": 10, "modality": "thermal-like", "layers": 1, '
         '"layer_disparities": [0.0], "homogeneous_fraction": 0.15, '
         '"corrupt_patch_fraction": 0.0}'),
    ], ids=["no-flags", "layers-3", "layers-1"])
    def test_synth_writes_the_scene_config_of_its_flags(self, tmp_path, monkeypatch, args, config):
        """The scene config a flag set writes, as earlier versions wrote it;
        the scene itself is a small stand-in, to keep the test fast."""
        import dataclasses

        from rgbxalign import cli

        small = gen_sequence(SceneConfig(size=64, frames=1))
        monkeypatch.setattr(cli, "gen_sequence", lambda cfg: dataclasses.replace(small, cfg=cfg))
        assert cli_main(["synth", "--out", str(tmp_path / "b"), *args]) == 0
        with np.load(tmp_path / "b" / "gt" / "scene.npz") as npz:
            assert str(npz["config"]) == config

    def test_densify_writes_the_fused_levels(self, tmp_path, rng):
        """`rgbxalign densify` writes the fusion of the enhanced levels, each
        weighted by its certainty rank, as a pipeline frame fuses them."""
        from scipy.ndimage import gaussian_filter

        from rgbxalign.densify import compute_affinities, densify_multilevel
        from rgbxalign.fuse_filter import enhance, fuse_levels
        from rgbxalign.matching import accumulate_matches, load_matchset, save_matchset

        tex = gaussian_filter(rng.random((96, 96)), 1.5)
        tex = (tex - tex.min()) / (tex.max() - tex.min())
        save_image(Image(np.stack([tex] * 3, axis=-1)), tmp_path / "rgb.png", bit_depth=8)
        save_image(Image(tex), tmp_path / "x.png", bit_depth=16)
        # matches of spread confidence, so that the levels differ
        pts = rng.uniform(2.0, 93.0, size=(400, 2))
        save_matchset(MatchSet("0", "0", pts, pts + rng.normal(0.0, 0.3, pts.shape),
                               rng.uniform(0.0, 1.0, 400)), tmp_path / "m.txt")
        assert cli_main(["densify", "--rgb", str(tmp_path / "rgb.png"), "--x", str(tmp_path / "x.png"),
                         "--matches", str(tmp_path / "m.txt"),
                         "--out", str(tmp_path / "d.png")]) == 0
        rgb = load_image(tmp_path / "rgb.png")
        sparse, conf = accumulate_matches([load_matchset(tmp_path / "m.txt")],
                                          [load_image(tmp_path / "x.png")], rgb.shape)
        certainty = {}
        levels = densify_multilevel(compute_affinities(rgb), sparse, conf, DensifyConfig(), certainty)
        assert len(levels) > 1 and len(set(certainty.values())) > 1
        fused = fuse_levels(enhance(list(levels.values()), rgb), [certainty[d] for d in levels])
        save_image(fused, tmp_path / "want.png", bit_depth=16)
        assert (tmp_path / "d.png").read_bytes() == (tmp_path / "want.png").read_bytes()

    def test_run_rejects_missing_config_file(self, bench_dir, tmp_path, capsys):
        code = cli_main(["run", "--input", str(bench_dir), "--out", str(tmp_path / "out"),
                         "--config", str(tmp_path / "missing.json")])
        assert code == 2 and "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--size", "32"], "size"),
        (["--size", "64", "--frames", "1", "--corrupt-fraction", "1.5"], "corrupt_patch_fraction"),
        (["--layers", "3", "--disparities", "1", "2"], "layer_disparities"),
        (["--size", "64", "--frames", "1", "--seed", "-1"], "seed"),
        (["--size", "64", "--frames", "1", "--disparities", "nan", "8"], "layer_disparities"),
        (["--size", "64", "--frames", "1", "--disparities", "0", "inf"], "layer_disparities"),
    ], ids=["size", "corrupt-fraction", "disparities", "seed", "disparities-nan",
            "disparities-inf"])
    def test_synth_rejects_bad_scene(self, tmp_path, capsys, args, named):
        code = cli_main(["synth", "--out", str(tmp_path / "b"), *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("manifest", [
        None,
        "not json",
        _manifest_of({"frame": "0000", "colour": "red"}),
        '["config", "frames"]',
        _manifest_of({"frame": "0000", "outputs": []}),
        _manifest_of({"frame": "0000", "outputs": {"x_final/0000.png": 1}}),
        _manifest_of({"frame": "0000", "warnings": "none"}),
        _manifest_of({"frame": 0}),
        _manifest_of({"frame": "0000", "status": None}),
        _manifest_of({"frame": "0000", "rejected": "3"}),
        _manifest_of({"frame": "0000", "q": True}),
        '{"config": [], "frames": []}',
        '{"config": {"output_dir": "run"}, "frames": []}',
    ], ids=["missing", "not-json", "unknown-key", "not-an-object", "outputs-not-an-object",
            "output-hash-not-a-string", "warnings-not-a-list", "frame-not-a-string",
            "status-not-a-string", "count-not-a-number", "score-a-bool", "config-not-an-object",
            "config-without-input-dir"])
    def test_export_rejects_bad_manifest(self, tmp_path, capsys, manifest):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        if manifest is not None:
            (run_dir / "manifest.json").write_text(manifest)
        model_dir = minimal_colmap(tmp_path, ["0000.png"])
        code = cli_main(["export", "--run", str(run_dir), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(run_dir / "manifest.json") in err

    # the last two would write outside --out
    @pytest.mark.parametrize("name_format", ["{idx}.png", "{frame:d}.png", "{0}.png", "{frame",
                                             "../{frame}.png", "/tmp/{frame}.png"])
    def test_export_rejects_bad_name_format(self, tmp_path, capsys, name_format):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        RunManifest({"input_dir": str(tmp_path), "output_dir": str(run_dir)},
                    [FrameRecord("0000", status="ok")]).write(run_dir / "manifest.json")
        model_dir = minimal_colmap(tmp_path, ["0000.png"])
        code = cli_main(["export", "--run", str(run_dir), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp"), "--name-format", name_format])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(name_format) in err
        assert not (tmp_path / "exp").exists()

    def test_export_rejects_name_format_collisions(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        RunManifest({"input_dir": str(tmp_path), "output_dir": str(run_dir)},
                    [FrameRecord(f"000{n}", status="ok") for n in range(3)]
                    ).write(run_dir / "manifest.json")
        model_dir = minimal_colmap(tmp_path, ["00.png"])
        code = cli_main(["export", "--run", str(run_dir), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp"), "--name-format", "{frame:.2}.png"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'00.png'" in err and "0000 and 0001" in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("name", ["cameras.txt", "images.txt"])
    def test_export_rejects_colmap_file_not_utf8(self, tmp_path, capsys, name):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        RunManifest({"input_dir": str(tmp_path), "output_dir": str(run_dir)},
                    [FrameRecord("0000", status="ok")]).write(run_dir / "manifest.json")
        model_dir = minimal_colmap(tmp_path, ["0000.png"])
        (model_dir / name).write_bytes(b"# \xff\xfe latin-1 comment\n")
        code = cli_main(["export", "--run", str(run_dir), "--model", str(model_dir),
                         "--out", str(tmp_path / "exp")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model_dir / name) in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("edit", [
        lambda _: "{not json",
        lambda _: '{"seed": 1, "frames": "two"}',
        lambda config: json.dumps(dict(json.loads(config), seed=23.5)),
    ], ids=["not-json", "bad-value", "wrong-type"])
    def test_bad_scene_config_reported(self, bench_dir, tmp_path, capsys, edit):
        import shutil

        bundle = tmp_path / "bundle"
        shutil.copytree(bench_dir, bundle)
        _edit_scene_config(bundle, edit)
        for args in (["run", "--out", str(tmp_path / "run")], ["eval", "--run", str(tmp_path / "run")]):
            assert cli_main([*args, "--input", str(bundle)]) == 2, args[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bundle / "gt" / "scene.npz") in err, args[0]


def test_manifest_failed_count():
    m = RunManifest(config={}, frames=[FrameRecord("0", status="ok"),
                                       FrameRecord("1", status="failed")])
    assert m.failed == 1


def test_manifest_lists_the_frames_filtering_worsened(small_bundle, tmp_path):
    bundle = tmp_path / "bundle"
    save_bundle(small_bundle, bundle)
    for filtering in (True, False):
        run = tmp_path / f"filtering_{filtering}"
        frames = run_pipeline(fast_config(bundle, run, window=3, enable_filtering=filtering)).frames
        written = json.loads((run / "manifest.json").read_text())
        if filtering:
            assert all(math.isfinite(f.lsim_after - f.lsim_before) for f in frames)
            worse = [f.frame for f in frames if f.lsim_after > f.lsim_before]
            assert written["filter_worsened"] == sorted(worse)
        else:
            assert written["filter_worsened"] == []
        assert [f.frame for f in RunManifest.read(run / "manifest.json").frames] == [
            f.frame for f in frames]
