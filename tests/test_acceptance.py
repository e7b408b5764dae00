"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The benchmark-trend criteria average 5 seeded trials each; the whole
module takes about 2 to 2½ minutes on two cores (120–156 s on a 2-vCPU VM,
most of it in criteria 3 and 4). Every test here carries the `acceptance`
marker, so `pytest -m "not acceptance"` runs the rest of the suite alone.
"""

import time

import numpy as np
import pytest

from rgbxalign import fuse_filter
from rgbxalign.densify import (
    OFFSETS,
    AffinityField,
    DensifyConfig,
    _guidance_weights,
    compute_affinities,
    init_dense,
    propagate,
)
from rgbxalign.imgcore import ConfidenceMap, Image, SparseMap, load_image
from rgbxalign.matching import (
    MatchSet,
    accumulate_matches,
    estimate_homography,
    warp_image,
)
from rgbxalign.metrics import psnr
from rgbxalign.pipeline import PipelineConfig, evaluate_run, run_pipeline
from rgbxalign.quantiles import quantile
from rgbxalign.synthbench import (
    NoiseModel,
    SceneConfig,
    consistency_metric,
    corrupt_with_mask,
    gen_sequence,
    oracle_match,
    save_bundle,
)

from .reference import (
    brute_force_accumulate,
    brute_force_filter,
    project,
    random_matchsets,
    reference_recurrence,
)

pytestmark = pytest.mark.acceptance

# the ablation-trend scenario: confidence-correlated noise on default scenes
TREND_NOISE = dict(oracle_sigma=0.5, oracle_outliers=0.3, oracle_rho=0.8)
TREND_SCENE = dict(size=256, frames=10, modality="nir-like")
SEEDS = range(5)


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num:>2} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def trend_bundles(workdir):
    dirs = {}
    for seed in SEEDS:
        d = workdir / f"trend{seed}"
        save_bundle(gen_sequence(SceneConfig(seed=seed, **TREND_SCENE)), d)
        dirs[seed] = d
    return dirs


def _run(bundle_dir, out_dir, **kw):
    cfg = PipelineConfig(input_dir=str(bundle_dir), output_dir=str(out_dir),
                         backend="oracle", **kw)
    run_pipeline(cfg)
    return evaluate_run(bundle_dir, out_dir).aggregate().psnr


def test_criterion_01_accumulation_oracle_equivalence(rng):
    """Accumulation agrees bitwise with a brute-force re-evaluation."""
    start = time.time()
    shape = (32, 32)
    for trial in range(50):
        n_sets = int(rng.integers(1, 8))
        n_matches = int(rng.integers(1, 10_000 // n_sets))
        sets, frames = random_matchsets(rng, n_sets, n_matches, shape)
        sp, cf = accumulate_matches(sets, frames, shape)
        values, count, conf = brute_force_accumulate(sets, frames, shape)
        assert np.array_equal(sp.known, count > 0)
        assert np.array_equal(sp.values[count > 0], values[count > 0])
        assert np.array_equal(cf.conf, conf)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(1, "Eq-1 accumulation oracle", f"50 collections bitwise, {elapsed:.1f}s")


def test_criterion_02_anchoring_and_degeneration(rng):
    """Full anchors reproduce known values; all-ones confidence is the plain recurrence."""
    # anchoring: Cs*Cm == 1 everywhere known
    values = rng.random((16, 16))
    sp_full = SparseMap(values, np.ones((16, 16), dtype=int))
    aff = compute_affinities(Image(rng.random((16, 16, 3))))
    out = propagate(Image(values), aff, sp_full, ConfidenceMap(np.ones((16, 16))),
                    DensifyConfig())
    assert np.array_equal(out.data, values)

    # degeneration to the unblended recurrence, bitwise, 20 instances
    cfg = DensifyConfig(iterations=4)
    for trial in range(20):
        counts = (rng.random((16, 16)) < 0.3).astype(int)
        if counts.sum() == 0:
            counts[0, 0] = 1
        sp = SparseMap(rng.random((16, 16)) * counts, counts)
        weights = _guidance_weights(Image(rng.random((16, 16, 3))))
        aff = AffinityField(weights.copy(), OFFSETS)
        mine = propagate(init_dense(sp), aff, sp, ConfidenceMap(np.ones((16, 16))), cfg)
        ref = reference_recurrence(init_dense(sp).data, weights,
                                   np.where(sp.known, sp.values, 0.0),
                                   sp.known.astype(np.float64), 4)
        assert np.array_equal(mine.data, ref)
    _report(2, "anchoring + recurrence degeneration", "exact anchors; 20 instances bitwise")


def test_criterion_03_confidence_aware_densification(trend_bundles, workdir):
    """Confidence in the recurrence beats forcing it to 1 by >= 0.3 dB."""
    start = time.time()
    gains = []
    for seed in SEEDS:
        bd = trend_bundles[seed]
        full = _run(bd, workdir / f"c3f{seed}", seed=seed, **TREND_NOISE)
        forced = _run(bd, workdir / f"c3n{seed}", seed=seed,
                      densify=DensifyConfig(use_confidence=False), **TREND_NOISE)
        gains.append(full - forced)
    elapsed = time.time() - start
    mean_gain = float(np.mean(gains))
    assert mean_gain >= 0.3, f"CADF gain {mean_gain:.3f} dB, per-seed {gains}"
    assert elapsed < 300.0
    _report(3, "confidence-aware densification",
            f"mean gain {mean_gain:+.2f} dB over 5 seeds, {elapsed:.0f}s")


def test_criterion_04_multilevel_fusion(trend_bundles, workdir):
    """Fusion sits within 0.2 dB of the best level and >= 0.2 dB above the lowest."""
    fused_all, best_all, low_all = [], [], []
    for seed in SEEDS:
        bd = trend_bundles[seed]
        fused = _run(bd, workdir / f"c4f{seed}", seed=seed, enable_filtering=False,
                     **TREND_NOISE)
        singles = {
            d: _run(bd, workdir / f"c4s{seed}-{d}", seed=seed, enable_filtering=False,
                    densify=DensifyConfig(thresholds=(d,)), **TREND_NOISE)
            for d in (0.15, 0.3, 0.5)
        }
        fused_all.append(fused)
        best_all.append(max(singles.values()))
        low_all.append(singles[0.15])
    fused_m, best_m, low_m = map(lambda v: float(np.mean(v)), (fused_all, best_all, low_all))
    assert fused_m >= best_m - 0.2, f"fused {fused_m:.2f} vs best {best_m:.2f}"
    assert fused_m >= low_m + 0.2, f"fused {fused_m:.2f} vs lowest {low_m:.2f}"
    _report(4, "multi-level fusion",
            f"fused {fused_m:.2f} dB vs best {best_m:.2f} / lowest {low_m:.2f}")


def test_criterion_05_self_matching_filter(workdir):
    """Corrupted patches are rejected and re-densification recovers >= 0.5 dB."""
    gains, recalls, false_rates = [], [], []
    for seed in SEEDS:
        cfg = SceneConfig(seed=seed, size=256, frames=4, modality="nir-like",
                          corrupt_patch_fraction=0.1, homogeneous_fraction=0.02)
        bundle = gen_sequence(cfg)
        bd = workdir / f"c5b{seed}"
        save_bundle(bundle, bd)
        out = workdir / f"c5r{seed}"
        run_pipeline(PipelineConfig(input_dir=str(bd), output_dir=str(out),
                                    backend="oracle", seed=seed, enable_filtering=False))
        for n in (1, 2):
            fused = load_image(out / "x_final" / f"{n:04d}.png")
            corrupted = corrupt_with_mask(fused, bundle.corruption_masks[n], seed=seed * 10 + n)
            sim = fuse_filter.similarity_matrix(
                fuse_filter.patch_descriptors(bundle.rgb[n]),
                fuse_filter.patch_descriptors(corrupted),
            )
            res = fuse_filter.concentration_and_filter(corrupted, sim)
            fine = fuse_filter.fine_densify(compute_affinities(bundle.rgb[n]), res.sparse, res.conf,
                                            DensifyConfig())
            grid = fuse_filter.PatchGrid(*bundle.shape)
            bad = np.array([bundle.corruption_masks[n].bits[grid.bounds(i)].mean() > 0.5
                            for i in range(grid.patches)])
            recalls.append(res.rejected_patches[bad].mean())
            false_rates.append(res.rejected_patches[~bad].mean())
            gt = bundle.x_gt[n]
            gains.append(psnr(fine, gt) - psnr(corrupted, gt))
    gain, recall, false_rate = map(lambda v: float(np.mean(v)), (gains, recalls, false_rates))
    assert gain >= 0.5, f"fine-stage gain {gain:.2f} dB"
    assert recall >= 0.70, f"rejection recall {recall:.2f}"
    assert false_rate <= 0.10, f"clean false-rejection {false_rate:.2f}"
    _report(5, "self-matching filter",
            f"gain {gain:+.2f} dB, recall {recall:.2f}, false-rejection {false_rate:.2f}")


def test_criterion_06_area_sampling(workdir):
    """Seeding homogeneous regions buys >= 1 dB when the matcher fails there."""
    gains = []
    for seed in SEEDS:
        cfg = SceneConfig(seed=seed, size=256, frames=4, modality="nir-like", layers=1,
                          layer_disparities=(0.0,), homogeneous_fraction=0.5)
        bundle = gen_sequence(cfg)
        assert np.mean([m.bits.mean() for m in bundle.area_masks]) >= 0.40
        bd = workdir / f"c6b{seed}"
        save_bundle(bundle, bd)
        base = dict(seed=seed, oracle_skip_homogeneous=True)
        with_as = _run(bd, workdir / f"c6on{seed}", **base)
        without = _run(bd, workdir / f"c6off{seed}", enable_area_sampling=False, **base)
        gains.append(with_as - without)
    mean_gain = float(np.mean(gains))
    assert mean_gain >= 1.0, f"area sampling gain {mean_gain:.2f} dB, per-seed {gains}"
    _report(6, "area sampling", f"mean gain {mean_gain:+.2f} dB over 5 seeds")


def test_criterion_07_planar_warp_failure(workdir):
    """Single-homography warping leaves >= 3x the pipeline's foreground RMSE."""
    ratios = []
    for seed in range(3):
        cfg = SceneConfig(seed=seed, size=256, frames=4, modality="nir-like")
        bundle = gen_sequence(cfg)
        bd = workdir / f"c7b{seed}"
        save_bundle(bundle, bd)
        out = workdir / f"c7r{seed}"
        run_pipeline(PipelineConfig(input_dir=str(bd), output_dir=str(out),
                                    backend="oracle", seed=seed))
        for n in (1, 2):
            ms = oracle_match(bundle, (n, n), NoiseModel(), 2000, seed=seed)
            hom, _ = estimate_homography(ms, 2.0, 400, seed=seed)
            warped, valid = warp_image(bundle.x_raw[n], hom, bundle.shape)
            final = load_image(out / "x_final" / f"{n:04d}.png")
            fg = bundle.foreground_mask(n).bits & valid.bits
            gt = bundle.x_gt[n].data
            rmse_warp = np.sqrt(np.mean((warped.data[fg] - gt[fg]) ** 2))
            rmse_pipe = np.sqrt(np.mean((final.data[fg] - gt[fg]) ** 2))
            ratios.append(rmse_warp / rmse_pipe)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 3.0, f"foreground RMSE ratio {mean_ratio:.2f}, per-pair {ratios}"
    _report(7, "planar-warp failure mode", f"foreground RMSE ratio {mean_ratio:.1f}x")


def test_criterion_08_ransac_robustness(rng):
    """GT homography recovered within 1 px mean inlier error at 40% outliers."""
    h_true = np.array([[0.99, 0.015, 5.0], [-0.01, 1.01, -4.0], [1e-5, -2e-5, 1.0]])
    errors = []
    for seed in range(20):
        trial_rng = np.random.default_rng(seed)
        src = trial_rng.uniform(10, 246, (200, 2))
        dst = project(h_true, src) + trial_rng.normal(0, 0.5, (200, 2))
        out = trial_rng.random(200) < 0.4
        dst[out] = trial_rng.uniform(0, 255, (int(out.sum()), 2))
        ms = MatchSet("a", "b", src, dst, np.full(200, 0.8))
        hom, _ = estimate_homography(ms, reproj_thresh=2.0, max_iters=500, seed=seed)
        inl = ~out
        err = np.linalg.norm(project(hom.h, src[inl]) - project(h_true, src[inl]), axis=1)
        errors.append(err.mean())
    worst = float(np.max(errors))
    assert worst <= 1.0, f"worst mean inlier reprojection error {worst:.3f} px"
    _report(8, "RANSAC robustness", f"mean inlier error {np.mean(errors):.3f} px, worst {worst:.3f}")


def test_criterion_09_similarity_exactness(rng):
    """Similarity matches the triple loop; hand-computed scores are exact."""
    for _ in range(5):
        m = rng.normal(size=(6, 12))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        m2 = rng.normal(size=(6, 12))
        m2 /= np.linalg.norm(m2, axis=1, keepdims=True)
        sim = fuse_filter.similarity_matrix(
            fuse_filter.FeatureMatrix(m), fuse_filter.FeatureMatrix(m2)
        )
        brute = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                acc = 0.0
                for k in range(12):
                    acc += m[i, k] * m2[j, k]
                brute[i, j] = acc / 0.1
        assert np.abs(sim.a - brute).max() < 1e-9

    ident = fuse_filter.SimilarityMatrix(np.eye(4), tau=1.0)
    assert fuse_filter.self_match_score(ident) == -2.0
    ones = fuse_filter.SimilarityMatrix(np.ones((2, 2)), tau=1.0)
    assert fuse_filter.self_match_score(ones) == pytest.approx(-0.9, abs=1e-15)
    _report(9, "similarity exactness", "triple-loop within 1e-9; hand cases exact")


def test_criterion_10_quantile_filter_oracle(rng):
    """q, threshold, and rejection set match a sort-based brute force."""
    img = Image(np.zeros((64, 64)))
    grid = fuse_filter.PatchGrid(64, 64)
    checked = 0
    for trial in range(100):
        p = grid.patches
        diag = rng.uniform(-2, 9.9, p)
        sim = fuse_filter.SimilarityMatrix(np.diag(diag), tau=0.1)
        res = fuse_filter.concentration_and_filter(img, sim)
        q, theta, rejected = brute_force_filter(diag)
        assert res.q == pytest.approx(q, abs=1e-12)
        if np.isfinite(theta):
            assert res.threshold == pytest.approx(theta, abs=1e-12)
        assert list(res.rejected_patches) == rejected
        checked += 1
    # and the shared quantile function itself on large inputs
    for _ in range(20):
        vals = rng.normal(size=int(rng.integers(1, 10_000)))
        prob = float(rng.random())
        ordered = sorted(vals)
        h = prob * (len(vals) - 1)
        lo = int(np.floor(h))
        hi = min(lo + 1, len(vals) - 1)
        expect = ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)
        assert quantile(vals, prob) == expect
    _report(10, "quantile/filter oracle", f"{checked} diagonals + 20 large quantiles")


def test_criterion_11_determinism(workdir):
    """Identical inputs, config, and seed give identical output hashes."""
    bd = workdir / "det-bundle"
    save_bundle(gen_sequence(SceneConfig(seed=31, size=128, frames=4, modality="nir-like")), bd)
    hashes = []
    for run_dir in ("det-a", "det-b"):
        cfg = PipelineConfig(input_dir=str(bd), output_dir=str(workdir / run_dir),
                             backend="oracle", seed=5, oracle_count=1500,
                             densify=DensifyConfig(iterations=10))
        manifest = run_pipeline(cfg)
        hashes.append([f.outputs for f in manifest.frames])
        assert all(f.outputs for f in manifest.frames)
    assert hashes[0] == hashes[1]
    _report(11, "determinism", "two runs, identical manifest hashes")


def test_criterion_12_multiview_consistency(workdir):
    """Pipeline outputs are at least as multi-view consistent as warp baselines."""
    pipe_scores, base_scores = [], []
    for seed in SEEDS:
        cfg = SceneConfig(seed=seed, size=256, frames=6, modality="nir-like")
        bundle = gen_sequence(cfg)
        bd = workdir / f"c12b{seed}"
        save_bundle(bundle, bd)
        out = workdir / f"c12r{seed}"
        run_pipeline(PipelineConfig(input_dir=str(bd), output_dir=str(out), backend="oracle",
                                    seed=seed, **TREND_NOISE))
        finals = [load_image(out / "x_final" / f"{n:04d}.png") for n in range(6)]
        noise = NoiseModel(sigma=TREND_NOISE["oracle_sigma"],
                           outlier_fraction=TREND_NOISE["oracle_outliers"],
                           rho=TREND_NOISE["oracle_rho"])
        baselines = []
        for n in range(6):
            ms = oracle_match(bundle, (n, n), noise, 3000, seed=seed)
            hom, _ = estimate_homography(ms, 2.0, 400, seed=seed + n)
            warped, _ = warp_image(bundle.x_raw[n], hom, bundle.shape)
            baselines.append(warped)
        pipe_scores.append(consistency_metric(finals, bundle))
        base_scores.append(consistency_metric(baselines, bundle))
    pipe_m, base_m = float(np.mean(pipe_scores)), float(np.mean(base_scores))
    assert pipe_m <= base_m, f"pipeline {pipe_m:.4f} vs baseline {base_m:.4f}"
    _report(12, "multi-view consistency", f"pipeline {pipe_m:.4f} <= baseline {base_m:.4f}")
