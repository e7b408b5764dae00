"""Benchmark generator: determinism, ground-truth consistency, oracle, metric."""

import json
import math

import numpy as np
import pytest
from scipy.ndimage import binary_erosion

from rgbxalign import synthbench
from rgbxalign.errors import MetricError, RgbxError
from rgbxalign.fuse_filter import PatchGrid
from rgbxalign.imgcore import Image, Mask, bilinear_sample
from rgbxalign.matching import _apply_homography
from rgbxalign.synthbench import (
    _ALPHA_HI,
    _ALPHA_LO,
    BILINEAR_BOUND,
    _REDRAW_TRIES,
    NoiseModel,
    SceneConfig,
    _build_scene,
    _layer_map,
    _layer_stacks,
    _pixel_grid,
    _redraw_outliers,
    _render_frame,
    _upsample,
    consistency_metric,
    corrupt_patches,
    gen_sequence,
    load_bundle,
    oracle_match,
    save_bundle,
)


def layer_homographies(bundle, frame):
    """RGB-frame -> X-frame homography of each layer for one frame."""
    out = []
    for l in range(bundle.cfg.layers):
        h = bundle.maps_x[frame][l] @ np.linalg.inv(bundle.maps_rgb[frame][l])
        out.append(h / h[2, 2])
    return out


def with_value_noise(img, sigma, seed=0):
    rng = np.random.default_rng(seed)
    return Image(np.clip(img.data + rng.normal(0.0, sigma, img.data.shape), 0.0, 1.0), units=img.units)


def render_reference(layers, maps, size, channels):
    """One view's render as first written: a fresh pixel grid and fresh
    texture coordinates and alphas per call, one content per call."""
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


def redraw_one_at_a_time(rng, truth, shape, min_dist):
    """The scalar loop `_redraw_outliers` replaces: one pair per draw."""
    height, width = shape
    drawn = np.zeros_like(truth)
    ok = np.zeros(len(truth), dtype=bool)
    for idx in range(len(truth)):
        for _ in range(_REDRAW_TRIES):
            cand = np.array([rng.uniform(0.0, height - 1), rng.uniform(0.0, width - 1)])
            if np.linalg.norm(cand - truth[idx]) >= min_dist:
                drawn[idx], ok[idx] = cand, True
                break
    return drawn, ok


def field_reference(bundle, i, maps_dst, alphas_dst, j):
    """The correspondence field as first written: a fresh pixel grid per call
    and every layer's own alpha sampled at its destination, layer 0's too."""
    height, width = bundle.shape
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    pts = np.column_stack([rows.ravel(), cols.ravel()]).astype(np.float64)
    coords = np.zeros((height * width, 2))
    layer_map = _layer_map(bundle.alphas_rgb[i]).ravel()
    for l in range(bundle.cfg.layers):
        sel = layer_map == l
        if not sel.any():
            continue
        h = maps_dst[j][l] @ np.linalg.inv(bundle.maps_rgb[i][l])
        coords[sel] = _apply_homography(h, pts[sel])
    valid = np.ones(height * width, dtype=bool)
    for l in range(1, bundle.cfg.layers):
        a = bundle.alphas_rgb[i][l].ravel()
        valid &= ~((a > _ALPHA_LO) & (a < _ALPHA_HI))
    valid &= (
        (coords[:, 0] >= 0.0)
        & (coords[:, 0] <= height - 1)
        & (coords[:, 1] >= 0.0)
        & (coords[:, 1] <= width - 1)
    )
    for l in range(bundle.cfg.layers):
        sel = (layer_map == l) & valid
        if not sel.any():
            continue
        for m in range(l + 1, bundle.cfg.layers):
            a, _ = bilinear_sample(alphas_dst[j][m], coords[sel, 0], coords[sel, 1])
            keep = a <= _ALPHA_LO
            idx = np.flatnonzero(sel)
            valid[idx[~keep]] = False
        a_self, _ = bilinear_sample(alphas_dst[j][l], coords[sel, 0], coords[sel, 1])
        idx = np.flatnonzero(sel)
        valid[idx[a_self < _ALPHA_HI]] = False
    return coords.reshape(height, width, 2), valid.reshape(height, width)


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
        h = layer_homographies(bundle, 0)[0]
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

    def test_fields_equal_reference_on_three_layers(self):
        bundle = gen_sequence(SceneConfig(seed=17, size=96, frames=3, modality="thermal-like",
                                          layers=3, layer_disparities=(0.0, 5.0, 10.0)))
        assert all((_layer_map(bundle.alphas_rgb[n]) == 2).any() for n in range(bundle.frames))
        for i in range(bundle.frames):
            for j in range(bundle.frames):
                for field, maps, alphas in (
                    (bundle.correspondence, bundle.maps_x, bundle.alphas_x),
                    (bundle.rgb_correspondence, bundle.maps_rgb, bundle.alphas_rgb),
                ):
                    coords, valid = field(i, j)
                    ref_coords, ref_valid = field_reference(bundle, i, maps, alphas, j)
                    assert np.array_equal(coords, ref_coords)
                    assert np.array_equal(valid, ref_valid)
                    assert 0 < valid.sum() < valid.size

    @pytest.mark.parametrize("cfg", [
        SceneConfig(seed=17, size=96, frames=3, modality="thermal-like", layers=3,
                    layer_disparities=(0.0, 5.0, 10.0)),
        SceneConfig(seed=5, size=64, frames=2, modality="sar-like", layers=1,
                    layer_disparities=(0.0,), homogeneous_fraction=0.4),
    ], ids=["three-layers", "one-layer"])
    def test_frames_render_as_the_reference(self, cfg):
        """One sample per layer and view gives the renders, alphas and area
        coverage of one render per image, bit for bit."""
        layers, homog_world, maps_rgb, maps_x = _build_scene(cfg, np.random.default_rng(cfg.seed))
        homog_world = homog_world.astype(np.float64)
        stacks_rgb, stacks_x = _layer_stacks(layers, homog_world)
        pts = _pixel_grid(cfg.size, cfg.size)
        for n in range(cfg.frames):
            got = _render_frame(stacks_rgb, stacks_x, maps_rgb[n], maps_x[n], pts, cfg.size)
            rgb, a_rgb = render_reference(layers, list(maps_rgb[n]), cfg.size, channels=3)
            x_gt, _ = render_reference(layers, list(maps_rgb[n]), cfg.size, channels=1)
            x_raw, a_x = render_reference(layers, list(maps_x[n]), cfg.size, channels=1)
            tex = _apply_homography(np.linalg.inv(maps_rgb[n][0]), pts)
            homog, _ = bilinear_sample(homog_world, tex[:, 0], tex[:, 1])
            want = (rgb, x_gt, x_raw, a_rgb, a_x, homog.reshape(cfg.size, cfg.size))
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    def test_gen_sequence_area_masks_follow_the_coverage(self):
        cfg = SceneConfig(seed=13, size=128, frames=2, layers=1, layer_disparities=(0.0,),
                          homogeneous_fraction=0.4)
        bundle = gen_sequence(cfg)
        layers, homog_world, maps_rgb, _ = _build_scene(
            cfg, np.random.default_rng(np.random.SeedSequence((0x5CE11E, cfg.seed))))
        pts = _pixel_grid(cfg.size, cfg.size)
        for n in range(cfg.frames):
            tex = _apply_homography(np.linalg.inv(maps_rgb[n][0]), pts)
            homog, _ = bilinear_sample(homog_world.astype(np.float64), tex[:, 0], tex[:, 1])
            area = binary_erosion(homog.reshape(cfg.size, cfg.size) > 0.5, iterations=2)
            assert np.array_equal(bundle.area_masks[n].bits, area)
            rgb, _ = render_reference(layers, list(maps_rgb[n]), cfg.size, channels=3)
            assert np.array_equal(bundle.rgb[n].data, np.clip(rgb, 0.0, 1.0))

    @pytest.mark.parametrize("shape, cell", [((64, 64), 24), ((37, 90), 7), ((5, 3), 3), ((96, 40), 96)])
    def test_upsample_equals_bilinear_sample(self, shape, cell):
        """The separable value-noise upsampling against bilinear_sample at
        every pixel's (r / cell, c / cell), bit for bit."""
        height, width = shape
        grid = np.random.default_rng(cell).random((height // cell + 2, width // cell + 2))
        rows = np.repeat(np.arange(height) / cell, width)
        cols = np.tile(np.arange(width) / cell, height)
        want, valid = bilinear_sample(grid, rows, cols)
        assert valid.all()
        assert np.array_equal(_upsample(grid, shape, cell), want.reshape(shape))

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(size=32)
        with pytest.raises(ValueError):
            SceneConfig(layers=2, layer_disparities=(1.0,))
        with pytest.raises(ValueError):
            SceneConfig(layers=2, layer_disparities=(4.0, 4.0))
        with pytest.raises(ValueError):
            SceneConfig(modality="laser")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SceneConfig(layers=2, layer_disparities=(bad, 8.0))
        with pytest.raises(ValueError, match="layer_disparities"):
            SceneConfig(layers=2, layer_disparities=("0", "8"))

    def test_layer_map_is_the_front_most_half_covering_layer(self):
        bundle = gen_sequence(SceneConfig(seed=17, size=96, frames=2, modality="thermal-like",
                                          layers=3, layer_disparities=(0.0, 5.0, 10.0)))
        for n in range(bundle.frames):
            want = np.zeros(bundle.shape, dtype=np.int64)
            for l in (1, 2):
                want[bundle.alphas_rgb[n][l] > 0.5] = l
            assert np.array_equal(_layer_map(bundle.alphas_rgb[n]), want)
            assert np.array_equal(bundle.foreground_mask(n).bits, want >= 1)


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

    @pytest.mark.parametrize("kwargs, named", [
        (dict(sigma="0.5"), "sigma"),
        (dict(rho=True), "rho"),
        (dict(skip_homogeneous=0), "skip_homogeneous"),
    ])
    def test_noise_of_the_wrong_type_rejected(self, kwargs, named):
        with pytest.raises(TypeError, match=named):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            NoiseModel(sigma=sigma)


def redraw_cases():
    # a draw misses a sixth to half of the time at 8 and 14; at 30 central
    # outliers hit the try cap and corner ones get through; 60 is beyond
    # the image diagonal, so every outlier hits the cap
    for count in (0, 1, 7, 300):
        for min_dist in (8.0, 14.0, 30.0, 60.0):
            yield pytest.param((24, 40), min_dist, count, id=f"{count}-{min_dist}")
    # the benchmark's regime, 900 outliers of 3000 matches at 8 px, where
    # few draws miss; and 40 px on 64x64, where two draws in three miss
    yield pytest.param((256, 256), 8.0, 900, id="256x256-900-8.0")
    yield pytest.param((64, 64), 40.0, 2700, id="64x64-2700-40.0")


class TestOutlierRedraw:
    @pytest.mark.parametrize("shape, min_dist, count", redraw_cases())
    def test_same_draws_as_one_at_a_time(self, shape, min_dist, count):
        height, width = shape
        truth = np.random.default_rng(count).uniform(0.0, [height - 1.0, width - 1.0], (count, 2))
        rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        want, want_ok = redraw_one_at_a_time(rng_ref, truth, shape, min_dist)
        got, got_ok = _redraw_outliers(rng, truth, shape, min_dist)
        assert np.array_equal(got_ok, want_ok)
        assert np.array_equal(got[got_ok], want[want_ok])
        assert rng.random() == rng_ref.random()
        if min_dist == 60.0:
            assert not got_ok.any()

    @pytest.mark.parametrize("noise", [
        NoiseModel(sigma=0.5, outlier_fraction=0.3, rho=0.8),  # the acceptance suite's trend
        NoiseModel(sigma=3.0, outlier_fraction=0.9, rho=0.8),
    ], ids=["trend", "sigma3-outliers90"])
    def test_oracle_matches_as_one_at_a_time(self, noise, monkeypatch):
        bundle = gen_sequence(SceneConfig(seed=3, size=256, frames=2))
        got = oracle_match(bundle, (0, 1), noise, 3000, seed=1)
        monkeypatch.setattr(synthbench, "_redraw_outliers", redraw_one_at_a_time)
        want = oracle_match(bundle, (0, 1), noise, 3000, seed=1)
        for name in ("p_rgb", "p_x", "conf"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


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
    def test_masks_generated(self, small_bundle):
        _, mask = corrupt_patches(small_bundle.x_gt[0], seed=1)
        # ceil(0.1 * 16) of the 16 patches of a 128 px frame
        assert mask.bits.mean() == 2 / 16

    def test_masks_are_whole_cells_on_a_remainder_grid(self):
        img = gen_sequence(SceneConfig(seed=4, size=100, frames=1)).x_gt[0]
        grid = PatchGrid(100, 100)
        touches_edge = False
        for seed in range(8):
            _, mask = corrupt_patches(img, seed)
            cells = [mask.bits[grid.bounds(i)] for i in range(grid.patches)]
            assert all(c.all() or not c.any() for c in cells)
            assert sum(c.all() for c in cells) == 1  # ceil(0.1 * 9) cells
            touches_edge |= bool(mask.bits[-1].any() or mask.bits[:, -1].any())
        # the last row and column of cells are 36 px, not 32
        assert touches_edge

    def test_corrupt_changes_only_masked(self, small_bundle):
        img = small_bundle.x_gt[0]
        out, mask = corrupt_patches(img, seed=1)
        bits = mask.bits
        assert out.units == img.units
        assert np.array_equal(out.data[~bits], img.data[~bits])
        assert np.mean(np.abs(out.data[bits] - img.data[bits])) > 0.05

    def test_textured_patches_first(self, rng):
        """Three textured patches of 16: the two picked are textured ones,
        the same for the same seed; a flat image falls back to any patch."""
        data = np.full((128, 128), 0.5)
        grid = PatchGrid(128, 128)
        textured = (3, 6, 12)
        for i in textured:
            data[grid.bounds(i)] = rng.random((32, 32))
        img = Image(data)
        out, mask = corrupt_patches(img, seed=5)
        picked = [i for i in range(grid.patches) if mask.bits[grid.bounds(i)].all()]
        assert len(picked) == 2 and set(picked) <= set(textured)
        again, same = corrupt_patches(img, seed=5)
        assert np.array_equal(again.data, out.data) and np.array_equal(same.bits, mask.bits)
        _, flat = corrupt_patches(Image(np.full((128, 128), 0.5)), seed=5)
        assert flat.bits.mean() == 2 / 16


BUNDLE_FIELDS = ("rgb", "x_gt", "x_raw", "area_masks", "alphas_rgb", "alphas_x",
                 "maps_rgb", "maps_x")


def field_arrays(bundle, name):
    """Every array a bundle field holds, in frame (and layer) order."""
    out = []
    for value in getattr(bundle, name):
        if isinstance(value, tuple):
            out.extend(value)
        elif isinstance(value, Image):
            out.append(value.data)
        elif isinstance(value, Mask):
            out.append(value.bits)
        else:
            out.append(value)
    return out


class TestPersistence:
    @pytest.mark.parametrize("cfg", [
        SceneConfig(seed=17, size=64, frames=2),
        SceneConfig(seed=2, size=96, frames=3, modality="sar-like", layers=3,
                    layer_disparities=(0.0, 4.0, 9.0)),
    ], ids=["plain", "three-layers"])
    def test_round_trip_is_bit_identical(self, tmp_path, cfg):
        bundle = gen_sequence(cfg)
        save_bundle(bundle, tmp_path / "b")
        again = load_bundle(tmp_path / "b")
        assert again.cfg == cfg
        for name in BUNDLE_FIELDS:
            want, got = field_arrays(bundle, name), field_arrays(again, name)
            assert len(got) == len(want), name
            for w, g in zip(want, got):
                assert g.dtype == w.dtype and g.shape == w.shape, name
                assert np.array_equal(g, w), name
        assert (tmp_path / "b" / "rgb" / "0000.png").exists()
        assert [p.name for p in (tmp_path / "b" / "gt").iterdir()] == ["scene.npz"]
        assert not (tmp_path / "b" / "x_gt").exists()

    def test_files_of_older_versions_ignored(self, tmp_path):
        bundle = gen_sequence(SceneConfig(seed=17, size=64, frames=2))
        save_bundle(bundle, tmp_path / "b")
        (tmp_path / "b" / "gt" / "meta").write_text("{not json")
        (tmp_path / "b" / "gt" / "homographies.txt").write_text("garbage\n")
        (tmp_path / "b" / "x_gt").mkdir()
        (tmp_path / "b" / "x_gt" / "0000.png").write_bytes(b"garbage")
        again = load_bundle(tmp_path / "b")
        assert again.cfg == bundle.cfg
        for w, g in zip(field_arrays(bundle, "x_gt"), field_arrays(again, "x_gt")):
            assert np.array_equal(g, w)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        save_bundle(gen_sequence(SceneConfig(seed=3, size=64, frames=2)), tmp_path / "b")
        bundle = load_bundle(tmp_path / "b")
        for name in BUNDLE_FIELDS:
            arrays = field_arrays(bundle, name)
            assert arrays, name
            for arr in arrays:
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1

    def test_frames_own_their_buffers(self, tmp_path):
        save_bundle(gen_sequence(SceneConfig(seed=17, size=64, frames=3)), tmp_path / "b")
        bundle = load_bundle(tmp_path / "b")
        for name in ("rgb", "x_gt", "x_raw", "area_masks", "alphas_rgb", "alphas_x"):
            arrays = field_arrays(bundle, name)
            for arr in arrays:
                root = arr
                while isinstance(root.base, np.ndarray):
                    root = root.base
                assert root.nbytes == arr.nbytes, name

    def test_missing_scene_file_rejected(self, tmp_path):
        save_bundle(gen_sequence(SceneConfig(seed=17, size=64, frames=2)), tmp_path / "b")
        (tmp_path / "b" / "gt" / "scene.npz").unlink()
        with pytest.raises(RgbxError, match="rgbxalign synth"):
            load_bundle(tmp_path / "b")

    def test_scene_file_of_another_shape_rejected(self, tmp_path):
        save_bundle(gen_sequence(SceneConfig(seed=17, size=64, frames=2)), tmp_path / "b")
        scene = tmp_path / "b" / "gt" / "scene.npz"
        with np.load(scene) as npz:
            members = {k: npz[k] for k in npz.files}
        for change, match in (
            (dict(x_gt=members["x_gt"][:, :32]), "x_gt array"),
            (dict(alphas_x=members["alphas_x"][:1]), "alphas_x array"),
            # the corruption masks that older versions stored
            (dict(corruption_masks=members["area_masks"]), "members"),
            # the layer maps that older versions stored
            (dict(layer_maps=members["area_masks"].astype(np.int64)), "regenerate the bundle"),
        ):
            np.savez(scene, **dict(members, **change))
            with pytest.raises(RgbxError, match=match):
                load_bundle(tmp_path / "b")
        del members["x_gt"]
        np.savez(scene, **members)
        with pytest.raises(RgbxError, match="members"):
            load_bundle(tmp_path / "b")

    def test_load_shares_the_last_bundle_read_only(self, tmp_path):
        for seed in (17, 18):
            save_bundle(gen_sequence(SceneConfig(seed=seed, size=64, frames=2)), tmp_path / f"b{seed}")
        first = load_bundle(tmp_path / "b17")
        assert load_bundle(tmp_path / "b17") is first
        other = load_bundle(tmp_path / "b18")
        assert other is not first and other.cfg.seed == 18
        for arr in (other.alphas_rgb[0], other.maps_x[1][0], other.rgb[0].data):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_meta_with_unknown_keys_rejected(self, tmp_path):
        save_bundle(gen_sequence(SceneConfig(seed=17, size=64, frames=2)), tmp_path / "b")
        scene = tmp_path / "b" / "gt" / "scene.npz"
        with np.load(scene) as npz:
            members = {k: npz[k] for k in npz.files}
        raw = json.loads(str(members["config"]))
        raw["sensor_jitter"] = 0.6  # a field of bundles written by older versions
        for config, match in ((json.dumps(raw), "sensor_jitter"), ("{not json", "scene file"),
                              ("[1, 2]", "not a JSON object")):
            np.savez(scene, **dict(members, config=np.array(config)))
            with pytest.raises(RgbxError, match=match):
                load_bundle(tmp_path / "b")
        del members["config"]
        np.savez(scene, **members)
        with pytest.raises(RgbxError, match="scene config"):
            load_bundle(tmp_path / "b")
