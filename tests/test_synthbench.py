"""Benchmark generator: determinism, ground-truth consistency, oracle, metric."""

import numpy as np
import pytest

from rgbxalign.errors import MetricError
from rgbxalign.fuse_filter import PatchGrid
from rgbxalign.imgcore import Image, bilinear_sample
from rgbxalign.synthbench import (
    BILINEAR_BOUND,
    NoiseModel,
    SceneConfig,
    consistency_metric,
    corrupt_with_mask,
    gen_sequence,
    load_bundle,
    oracle_match,
    save_bundle,
    with_value_noise,
)


class TestGeneration:
    def test_deterministic(self):
        cfg = SceneConfig(seed=21, size=64, frames=2)
        a = gen_sequence(cfg)
        b = gen_sequence(cfg)
        for n in range(2):
            assert np.array_equal(a.rgb[n].data, b.rgb[n].data)
            assert np.array_equal(a.x_raw[n].data, b.x_raw[n].data)
            assert np.array_equal(a.x_gt[n].data, b.x_gt[n].data)

    @pytest.mark.parametrize("modality", ["thermal-like", "nir-like", "sar-like"])
    def test_gt_warp_consistency(self, modality):
        bundle = gen_sequence(SceneConfig(seed=3, size=128, frames=3, modality=modality))
        for n in range(bundle.frames):
            coords, valid = bundle.correspondence(n, n)
            sampled, ok = bilinear_sample(bundle.x_raw[n].data, coords[:, :, 0], coords[:, :, 1])
            sel = valid & ok
            rmse = np.sqrt(np.mean((sampled[sel] - bundle.x_gt[n].data[sel]) ** 2))
            assert rmse <= BILINEAR_BOUND

    def test_single_layer_is_global_homography(self):
        bundle = gen_sequence(SceneConfig(seed=5, size=96, frames=2, layers=1,
                                          layer_disparities=(0.0,)))
        coords, _ = bundle.correspondence(0, 0)
        h = bundle.layer_homographies(0)[0]
        rows, cols = np.meshgrid(np.arange(96), np.arange(96), indexing="ij")
        pts = np.column_stack([rows.ravel(), cols.ravel()]).astype(float)
        hom = np.column_stack([pts, np.ones(len(pts))])
        q = hom @ h.T
        expect = (q[:, :2] / q[:, 2:3]).reshape(96, 96, 2)
        assert np.abs(coords - expect).max() < 1e-9

    def test_two_layer_defeats_single_homography(self, small_bundle):
        # best single homography leaves multi-pixel error on the foreground
        from rgbxalign.matching import estimate_homography

        n = 1
        ms = oracle_match(small_bundle, (n, n), NoiseModel(), 1200, seed=0)
        hom, _ = estimate_homography(ms, reproj_thresh=2.0, seed=0)
        coords, valid = small_bundle.correspondence(n, n)
        rows, cols = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
        pts = np.column_stack([rows.ravel(), cols.ravel()]).astype(float)
        mapped = hom.apply(pts).reshape(128, 128, 2)
        err = np.linalg.norm(mapped - coords, axis=2)
        fg = small_bundle.foreground_mask(n).bits & valid
        assert np.median(err[fg]) >= 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(size=32)
        with pytest.raises(ValueError):
            SceneConfig(layers=2, layer_disparities=(1.0,))
        with pytest.raises(ValueError):
            SceneConfig(layers=2, layer_disparities=(4.0, 4.0))
        with pytest.raises(ValueError):
            SceneConfig(modality="laser")


class TestOracle:
    def test_zero_noise_exact(self, small_bundle):
        ms = oracle_match(small_bundle, (0, 1), NoiseModel(), 400, seed=9)
        assert len(ms) == 400
        assert np.all(ms.conf == 1.0)
        coords, valid = small_bundle.correspondence(0, 1)
        pix = ms.p_rgb.astype(int)
        expect = coords[pix[:, 0], pix[:, 1]]
        assert np.abs(ms.p_x - expect).max() < 1e-9
        assert valid[pix[:, 0], pix[:, 1]].all()

    def test_outlier_rate(self, small_bundle):
        rates = []
        for seed in range(10):
            ms = oracle_match(small_bundle, (1, 1), NoiseModel(sigma=0.5, outlier_fraction=0.4),
                              1000, seed=seed)
            coords, _ = small_bundle.correspondence(1, 1)
            pix = ms.p_rgb.astype(int)
            err = np.linalg.norm(ms.p_x - coords[pix[:, 0], pix[:, 1]], axis=1)
            rates.append((err < 3.0).mean())
        assert abs(np.mean(rates) - 0.6) <= 0.03

    def test_rho_one_separates(self, small_bundle):
        ms = oracle_match(small_bundle, (2, 2), NoiseModel(sigma=0.5, outlier_fraction=0.3, rho=1.0),
                          800, seed=4)
        coords, _ = small_bundle.correspondence(2, 2)
        pix = ms.p_rgb.astype(int)
        err = np.linalg.norm(ms.p_x - coords[pix[:, 0], pix[:, 1]], axis=1)
        is_inlier = err < 3.0
        assert ms.conf[is_inlier].min() > ms.conf[~is_inlier].max()

    def test_skip_homogeneous(self):
        bundle = gen_sequence(SceneConfig(seed=13, size=128, frames=2, layers=1,
                                          layer_disparities=(0.0,), homogeneous_fraction=0.4))
        ms = oracle_match(bundle, (0, 0), NoiseModel(skip_homogeneous=True), 3000, seed=0)
        pix = ms.p_rgb.astype(int)
        assert not bundle.area_masks[0].bits[pix[:, 0], pix[:, 1]].any()

    def test_seeded(self, small_bundle):
        nm = NoiseModel(sigma=0.5, outlier_fraction=0.2)
        a = oracle_match(small_bundle, (0, 2), nm, 300, seed=7)
        b = oracle_match(small_bundle, (0, 2), nm, 300, seed=7)
        assert np.array_equal(a.p_x, b.p_x) and np.array_equal(a.conf, b.conf)


class TestConsistencyMetric:
    def test_gt_is_consistent(self, small_bundle):
        assert consistency_metric(list(small_bundle.x_gt), small_bundle) <= BILINEAR_BOUND

    def test_random_is_inconsistent(self, small_bundle, rng):
        outputs = [Image(rng.random(small_bundle.shape)) for _ in range(3)]
        assert consistency_metric(outputs, small_bundle) >= 0.2

    def test_monotone_in_noise(self, small_bundle):
        prev = consistency_metric(list(small_bundle.x_gt), small_bundle)
        for i, sigma in enumerate((0.02, 0.05, 0.1)):
            noisy = [with_value_noise(img, sigma, seed=100 + 7 * i + k)
                     for k, img in enumerate(small_bundle.x_gt)]
            cur = consistency_metric(noisy, small_bundle)
            assert cur > prev
            prev = cur

    def test_single_frame_undefined(self, small_bundle):
        with pytest.raises(MetricError):
            consistency_metric([small_bundle.x_gt[0]], small_bundle)


class TestCorruption:
    def test_masks_generated(self):
        bundle = gen_sequence(SceneConfig(seed=2, size=128, frames=2, corrupt_patch_fraction=0.1))
        assert bundle.corruption_masks is not None
        frac = bundle.corruption_masks[0].bits.mean()
        assert 0.05 <= frac <= 0.2

    def test_masks_are_whole_cells_on_a_remainder_grid(self):
        bundle = gen_sequence(SceneConfig(seed=4, size=100, frames=4, patch_size=32,
                                          corrupt_patch_fraction=0.2))
        grid = PatchGrid(100, 100, 32)
        touches_edge = False
        for mask in bundle.corruption_masks:
            cells = [mask.bits[grid.bounds(i)] for i in range(grid.patches)]
            assert all(c.all() or not c.any() for c in cells)
            assert sum(c.all() for c in cells) == 2  # ceil(0.2 * 9) cells
            touches_edge |= bool(mask.bits[-1].any() or mask.bits[:, -1].any())
        # the last row and column of cells are 36 px, not 32
        assert touches_edge

    def test_corrupt_changes_only_masked(self, small_bundle):
        bundle = gen_sequence(SceneConfig(seed=2, size=128, frames=2, corrupt_patch_fraction=0.1))
        img = bundle.x_gt[0]
        out = corrupt_with_mask(img, bundle.corruption_masks[0], seed=1)
        bits = bundle.corruption_masks[0].bits
        assert np.array_equal(out.data[~bits], img.data[~bits])
        assert np.mean(np.abs(out.data[bits] - img.data[bits])) > 0.05


class TestPersistence:
    def test_save_load_regenerates(self, tmp_path):
        cfg = SceneConfig(seed=17, size=64, frames=2)
        bundle = gen_sequence(cfg)
        save_bundle(bundle, tmp_path / "b")
        again = load_bundle(tmp_path / "b")
        assert again.cfg == cfg
        for n in range(2):
            assert np.array_equal(again.rgb[n].data, bundle.rgb[n].data)
        assert (tmp_path / "b" / "rgb" / "0000.png").exists()
        assert (tmp_path / "b" / "gt" / "homographies.txt").exists()

    def test_load_shares_the_last_bundle_read_only(self, tmp_path):
        for seed in (17, 18):
            save_bundle(gen_sequence(SceneConfig(seed=seed, size=64, frames=2)), tmp_path / f"b{seed}")
        first = load_bundle(tmp_path / "b17")
        assert load_bundle(tmp_path / "b17") is first
        other = load_bundle(tmp_path / "b18")
        assert other is not first and other.cfg.seed == 18
        for arr in (other.layer_maps[0], other.alphas_rgb[0], other.maps_x[1][0], other.rgb[0].data):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_homography_file_layout(self, tmp_path):
        bundle = gen_sequence(SceneConfig(seed=17, size=64, frames=2))
        save_bundle(bundle, tmp_path / "b")
        lines = [l for l in (tmp_path / "b" / "gt" / "homographies.txt").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 2 * bundle.cfg.layers
        first = lines[0].split()
        assert len(first) == 11  # frame, layer, 9 entries
        h = np.array([float(v) for v in first[2:]]).reshape(3, 3)
        assert np.abs(h - bundle.layer_homographies(0)[0]).max() < 1e-12
