"""Propagation recurrence: affinities, anchoring, convergence, level logic."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse import dia_array
from scipy.spatial import cKDTree
from scipy.stats import rankdata

from rgbxalign import densify
from rgbxalign.densify import (
    REACH_ITERATIONS,
    OFFSETS,
    AffinityField,
    DensifyConfig,
    _guidance_weights,
    compute_affinities,
    densify_multilevel,
    init_dense,
    propagate,
    reach,
    threshold_sparse,
)
from rgbxalign.errors import DensifyError
from rgbxalign.imgcore import ConfidenceMap, Image, SparseMap
from rgbxalign.metrics import psnr

from .reference import reference_guidance_weights, reference_recurrence


def random_sparse(rng, shape, frac):
    counts = (rng.random(shape) < frac).astype(int)
    if counts.sum() == 0:
        counts[0, 0] = 1
    values = rng.random(shape) * counts
    return SparseMap(values, counts)


class TestAffinities:
    def test_rows_sum_to_one(self, rng):
        weights = _guidance_weights(Image(rng.random((20, 20, 3))))
        assert np.abs(weights.sum(axis=0) - 1.0).max() < 1e-6
        assert weights.min() >= 0.0

    def test_constant_guidance_symmetric(self):
        interior = _guidance_weights(Image(np.full((16, 16, 3), 0.5)))[:, 8, 8]
        for ring in range(3):
            w = interior[ring * 8 : (ring + 1) * 8]
            assert np.ptp(w) < 1e-12

    def test_edge_blocks_diffusion(self):
        img = np.zeros((16, 16, 3))
        img[:, 8:] = 1.0
        weights = _guidance_weights(Image(img))
        across = OFFSETS.index((0, 1))
        along = OFFSETS.index((1, 0))
        # at a pixel just left of the step, weight across < weight along
        assert weights[across, 8, 7] < weights[along, 8, 7]

    def test_out_of_bounds_zero(self, rng):
        weights = _guidance_weights(Image(rng.random((10, 10, 3))))
        up = OFFSETS.index((-1, 0))
        assert weights[up, 0, 5] == 0.0

    # (2, 9) is the smallest guide accepted
    @pytest.mark.parametrize("shape", [(3, 30), (2, 9)])
    def test_guide_thinner_than_largest_radius(self, rng, shape):
        # every radius-4 neighbor lies off the raster in the thin dimension
        weights = _guidance_weights(Image(rng.random((*shape, 3))))
        assert np.abs(weights.sum(axis=0) - 1.0).max() < 1e-6
        for k, (dr, dc) in enumerate(OFFSETS):
            if abs(dr) >= shape[0] or abs(dc) >= shape[1]:
                assert not weights[k].any()

    @pytest.mark.parametrize("shape", [
        (3, 30), (2, 9), (30, 9), (5, 17, 3), (64, 100, 3), (257, 129),
    ], ids=lambda shape: "x".join(map(str, shape)))
    def test_weights_equal_the_whole_raster_reference(self, rng, shape):
        rgb = Image(rng.random(shape))
        assert np.array_equal(_guidance_weights(rgb), reference_guidance_weights(rgb))

    def test_guide_too_narrow_for_the_offsets(self, rng):
        with pytest.raises(DensifyError, match="too small"):
            _guidance_weights(Image(rng.random((30, 8, 3))))

    def test_field_narrower_than_its_column_span_rejected(self):
        # offsets (0, 1) and (0, -1) span 2 columns, so the raster needs 3
        weights = np.zeros((2, 4, 2))
        weights[0, :, 0], weights[1, :, 1] = 1.0, 1.0
        with pytest.raises(ValueError, match="column span"):
            AffinityField(weights, ((0, 1), (0, -1)))

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            AffinityField(np.full((1, 4, 4), 0.5), ((0, 1),))

    def test_out_of_bounds_weight_rejected(self):
        # sums to 1 everywhere, but the last column leans on a missing neighbor
        weights = np.zeros((2, 4, 4))
        weights[0] = 1.0
        with pytest.raises(ValueError, match="out-of-bounds"):
            AffinityField(weights, ((0, 1), (0, -1)))
        weights[0, :, 3], weights[1, :, 3] = 0.0, 1.0
        AffinityField(weights, ((0, 1), (0, -1)))


def check_nearest_anchor(sparse, min_d2=None):
    """init_dense against brute force: every known pixel keeps its value, and
    every void pixel takes the value of some known pixel at the least squared
    distance from it. `min_d2`, when given, holds those least distances, one
    per void pixel in row-major order, in place of the exhaustive search."""
    out = init_dense(sparse).data
    known = sparse.known
    known_coords = np.argwhere(known)
    known_vals = sparse.values[known]
    void_coords = np.argwhere(~known)
    assert np.array_equal(out[known], known_vals)
    if min_d2 is None:
        min_d2 = [((known_coords - pixel) ** 2).sum(axis=1).min() for pixel in void_coords]
    # the least distance from each void pixel to a known pixel holding its value
    order = np.argsort(known_vals, kind="stable")
    void_vals = out[~known]
    lo = np.searchsorted(known_vals[order], void_vals, side="left")
    hi = np.searchsorted(known_vals[order], void_vals, side="right")
    assert np.all(hi > lo)
    best = np.full(len(void_coords), np.iinfo(np.int64).max)
    for j in range(int((hi - lo).max(initial=0))):
        cand = known_coords[order[np.minimum(lo + j, len(order) - 1)]]
        d2 = ((cand - void_coords) ** 2).sum(axis=1)
        best = np.where(lo + j < hi, np.minimum(best, d2), best)
    assert np.array_equal(best, np.asarray(min_d2, dtype=np.int64))


class TestAnchorScan:
    """init_dense's nearest anchors against a scan of every known pixel."""

    @pytest.mark.parametrize("shape", [(64, 64), (3, 30), (30, 3)])
    def test_random_map(self, rng, shape):
        check_nearest_anchor(random_sparse(rng, shape, 0.15 if shape[0] > 3 else 0.3))

    @pytest.mark.parametrize("n_known", [1, 2, 3])
    def test_fewer_than_four_known(self, rng, n_known):
        values = np.zeros((10, 12))
        counts = np.zeros((10, 12), dtype=int)
        flat = rng.choice(120, size=n_known, replace=False)
        counts.flat[flat] = 1
        values.flat[flat] = rng.random(n_known)
        check_nearest_anchor(SparseMap(values, counts))

    def test_void_block_in_dense_map(self, rng):
        counts = (rng.random((96, 96)) < 0.9).astype(int)
        counts[40:72, 20:52] = 0
        check_nearest_anchor(SparseMap(rng.random((96, 96)) * counts, counts))

    def test_sparse_map_against_tree(self, rng):
        sparse = random_sparse(rng, (512, 512), 0.02)
        tree = cKDTree(np.argwhere(sparse.known))
        dist, _ = tree.query(np.argwhere(~sparse.known))
        # dist is the correctly rounded root of an integer
        check_nearest_anchor(sparse, np.rint(dist * dist).astype(int))

    def test_tie_takes_a_nearest_anchor(self):
        # (3, 3) has two anchors at d2 = 1 and four at d2 = 2
        values = np.zeros((7, 7))
        counts = np.zeros((7, 7), dtype=int)
        for (r, c), v in {(2, 3): 0.1, (3, 4): 0.2, (2, 2): 0.3, (2, 4): 0.4,
                          (4, 2): 0.5, (4, 4): 0.6}.items():
            values[r, c], counts[r, c] = v, 1
        sparse = SparseMap(values, counts)
        check_nearest_anchor(sparse)
        assert init_dense(sparse).data[3, 3] in (0.1, 0.2)


class TestInitDense:
    def test_single_known_constant(self):
        values = np.zeros((8, 8))
        counts = np.zeros((8, 8), dtype=int)
        values[3, 4] = 0.8
        counts[3, 4] = 1
        out = init_dense(SparseMap(values, counts))
        assert np.abs(out.data - 0.8).max() == 0.0

    def test_two_corner_midpoint(self):
        values = np.zeros((9, 9))
        counts = np.zeros((9, 9), dtype=int)
        counts[0, 0] = counts[8, 8] = 1
        values[8, 8] = 1.0
        out = init_dense(SparseMap(values, counts)).data
        assert out[1, 1] == 0.0 and out[7, 7] == 1.0
        # the midpoint is as far from both, so it takes one of them
        assert out[4, 4] in (0.0, 1.0)

    def test_dense_input_identity(self, rng):
        values = rng.random((6, 6))
        sp = SparseMap(values, np.ones((6, 6), dtype=int))
        assert np.array_equal(init_dense(sp).data, values)

    def test_all_void_fails(self):
        with pytest.raises(DensifyError):
            init_dense(SparseMap(np.zeros((4, 4)), np.zeros((4, 4), dtype=int)))


class TestPropagate:
    def test_full_anchor_fixed_point(self, rng):
        values = rng.random((16, 16))
        sp = SparseMap(values, np.ones((16, 16), dtype=int))
        aff = compute_affinities(Image(rng.random((16, 16, 3))))
        steps: list[float] = []
        out = propagate(Image(values), aff, sp, ConfidenceMap(np.ones((16, 16))),
                        DensifyConfig(), step_sizes=steps)
        assert np.array_equal(out.data, values)
        # nothing moves, and still every iteration runs
        assert steps == [0.0] * DensifyConfig().iterations

    def test_non_finite_result_raises(self, rng):
        sp = random_sparse(rng, (16, 16), 0.3)
        aff = compute_affinities(Image(rng.random((16, 16, 3))))
        aff.operator = dia_array((np.full((1, 256), np.nan), [0]), shape=(256, 256))
        with pytest.raises(DensifyError, match="not finite"):
            propagate(init_dense(sp), aff, sp, ConfidenceMap(sp.known.astype(float)))

    def test_single_anchor_converges(self):
        values = np.zeros((32, 32))
        counts = np.zeros((32, 32), dtype=int)
        values[16, 16] = 1.0
        counts[16, 16] = 1
        sp = SparseMap(values, counts)
        cfg = DensifyConfig(iterations=200)
        aff = compute_affinities(Image(np.full((32, 32, 3), 0.5)))
        out = propagate(init_dense(sp), aff, sp, ConfidenceMap(counts.astype(float)), cfg)
        assert np.abs(out.data - 1.0).max() < 0.01

    def test_bitwise_vs_reference(self, rng):
        # cm = 1 degenerates to the plain certainty recurrence
        for trial in range(5):
            sp = random_sparse(rng, (16, 16), 0.3)
            weights = _guidance_weights(Image(rng.random((16, 16, 3))))
            aff = AffinityField(weights.copy(), OFFSETS)
            cfg = DensifyConfig(iterations=4)
            mine = propagate(init_dense(sp), aff, sp, ConfidenceMap(np.ones((16, 16))), cfg)
            xm = np.where(sp.known, sp.values, 0.0)
            ref = reference_recurrence(init_dense(sp).data, weights, xm,
                                       sp.known.astype(np.float64), 4)
            assert np.array_equal(mine.data, ref)

    # whole diagonals fall off these rasters; on the 9-wide ones, the
    # narrowest accepted, a column offset of 4 reaches the next row's edge,
    # where its weight is 0
    @pytest.mark.parametrize("shape", [(3, 30), (5, 9), (2, 9)])
    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_bitwise_vs_reference_on_thin_rasters(self, rng, shape, use_confidence):
        sp = random_sparse(rng, shape, 0.3)
        conf = ConfidenceMap(np.where(sp.known, rng.uniform(0.1, 1.0, shape), 0.0))
        weights = _guidance_weights(Image(rng.random((*shape, 3))))
        aff = AffinityField(weights.copy(), OFFSETS)
        cfg = DensifyConfig(iterations=6, use_confidence=use_confidence)
        mine = propagate(init_dense(sp), aff, sp, conf, cfg)
        anchor = sp.known.astype(np.float64)
        if use_confidence:
            anchor = anchor * conf.conf
        ref = reference_recurrence(init_dense(sp).data, weights,
                                   np.where(sp.known, sp.values, 0.0), anchor, 6)
        assert np.array_equal(mine.data, ref)

    def test_raster_shape_must_match_field(self, rng):
        sp = random_sparse(rng, (12, 16), 0.3)
        aff = compute_affinities(Image(rng.random((16, 12, 3))))
        with pytest.raises(DensifyError, match="shape"):
            propagate(init_dense(sp), aff, sp, ConfidenceMap(sp.known.astype(float)))

    def test_min_max_bound(self, rng):
        sp = random_sparse(rng, (20, 20), 0.2)
        conf = ConfidenceMap(np.where(sp.known, rng.random((20, 20)), 0.0))
        aff = compute_affinities(Image(rng.random((20, 20, 3))))
        out = propagate(init_dense(sp), aff, sp, conf, DensifyConfig())
        lo = min(init_dense(sp).data.min(), sp.values[sp.known].min())
        hi = max(init_dense(sp).data.max(), sp.values[sp.known].max())
        assert out.data.min() >= lo - 1e-9
        assert out.data.max() <= hi + 1e-9

    def test_confidence_softens_noisy_anchor(self, rng):
        # the CADF mechanism: a half-confidence wrong anchor lands closer to
        # its neighborhood than a full-confidence one
        shape = (24, 24)
        counts = np.zeros(shape, dtype=int)
        values = np.full(shape, 0.5)
        counts[::3, ::3] = 1
        values[12, 12] = 1.0  # wrong anchor in a 0.5 field
        counts[12, 12] = 1
        sp = SparseMap(values * counts, counts)
        aff = compute_affinities(Image(np.full((24, 24, 3), 0.5)))
        cfg = DensifyConfig()
        out_soft = propagate(init_dense(sp), aff, sp,
                             ConfidenceMap(np.where(counts > 0, 0.5, 0.0)), cfg)
        out_hard = propagate(init_dense(sp), aff, sp, ConfidenceMap(counts.astype(float)), cfg)
        assert abs(out_soft.data[12, 12] - 0.5) < abs(out_hard.data[12, 12] - 0.5)

    def test_contraction_on_benchmark(self, small_bundle):
        from rgbxalign.matching import accumulate_matches
        from rgbxalign.synthbench import NoiseModel, oracle_match

        ms = oracle_match(small_bundle, (1, 1), NoiseModel(), 1200, seed=0)
        sp, conf = accumulate_matches([ms], [small_bundle.x_raw[1]], small_bundle.shape)
        cfg = DensifyConfig()
        steps: list[float] = []
        propagate(init_dense(sp), compute_affinities(small_bundle.rgb[1]), sp,
                  conf, cfg, step_sizes=steps)
        for i in range(3, len(steps) - 1):
            assert steps[i + 1] <= steps[i] * 1.05 + 1e-12

    def test_monotone_improvement_over_init(self, small_bundle):
        from rgbxalign.matching import accumulate_matches
        from rgbxalign.synthbench import NoiseModel, oracle_match

        n = 3
        ms = oracle_match(small_bundle, (n, n), NoiseModel(), 4000, seed=2)
        sp, conf = accumulate_matches([ms], [small_bundle.x_raw[n]], small_bundle.shape)
        gt = small_bundle.x_gt[n]
        l0 = init_dense(sp)
        cfg = DensifyConfig()
        out = propagate(l0, compute_affinities(small_bundle.rgb[n]), sp, conf, cfg)
        assert psnr(out, gt) >= psnr(l0, gt)


class TestMultilevel:
    def test_uniform_confidence_identical_levels(self, rng):
        sp = random_sparse(rng, (16, 16), 0.3)
        conf = ConfidenceMap(sp.known.astype(float))
        rgb = Image(rng.random((16, 16, 3)))
        levels = densify_multilevel(compute_affinities(rgb), sp, conf, DensifyConfig(iterations=6))
        assert list(levels) == [0.15, 0.3, 0.5]
        first = levels[0.15].data
        for img in levels.values():
            assert np.array_equal(img.data, first)

    def test_level_omitted_above_max_conf(self, rng):
        sp = random_sparse(rng, (16, 16), 0.3)
        conf = ConfidenceMap(np.where(sp.known, 0.4, 0.0))
        levels = densify_multilevel(compute_affinities(Image(rng.random((16, 16, 3)))), sp, conf,
                                    DensifyConfig(iterations=4))
        assert list(levels) == [0.15, 0.3]

    def test_all_empty_fails(self, rng):
        sp = random_sparse(rng, (16, 16), 0.2)
        conf = ConfidenceMap(np.where(sp.known, 0.1, 0.0))
        with pytest.raises(DensifyError):
            densify_multilevel(compute_affinities(Image(rng.random((16, 16, 3)))), sp, conf,
                               DensifyConfig(thresholds=(0.2, 0.5), iterations=4))

    def test_certainty_reported_per_level(self, rng):
        sp = random_sparse(rng, (16, 16), 0.3)
        conf = ConfidenceMap(np.where(sp.known, 0.4, 0.0))
        certainty = {}
        levels = densify_multilevel(compute_affinities(Image(rng.random((16, 16, 3)))), sp, conf,
                                    DensifyConfig(iterations=4), certainty)
        assert list(certainty) == list(levels) == [0.15, 0.3]
        assert all(0.0 < c <= 0.4 for c in certainty.values())

    def test_lone_level_gets_no_certainty(self, rng):
        sp = random_sparse(rng, (16, 16), 0.3)
        conf = ConfidenceMap(np.where(sp.known, 0.4, 0.0))
        certainty = {}
        levels = densify_multilevel(compute_affinities(Image(rng.random((16, 16, 3)))), sp, conf,
                                    DensifyConfig(thresholds=(0.15, 0.5), iterations=4),
                                    certainty)
        assert list(levels) == [0.15] and certainty == {}

    def test_threshold_monotone_nesting(self, rng):
        sp = random_sparse(rng, (20, 20), 0.4)
        conf = ConfidenceMap(np.where(sp.known, rng.random((20, 20)), 0.0))
        prev = None
        for delta in (0.15, 0.3, 0.5):
            level_sp = threshold_sparse(sp, conf, delta)
            if prev is not None:
                assert np.all(~level_sp.known | prev)  # level k+1 subset of level k
            prev = level_sp.known

    def test_level_shares_the_values(self, rng):
        sp = random_sparse(rng, (20, 20), 0.4)
        conf = ConfidenceMap(np.where(sp.known, rng.random((20, 20)), 0.0))
        level_sp = threshold_sparse(sp, conf, 0.3)
        assert np.shares_memory(level_sp.values, sp.values)
        assert level_sp.known.dtype == bool
        assert np.array_equal(level_sp.known, sp.known & (conf.conf >= 0.3))


def test_config_validation():
    with pytest.raises(ValueError):
        DensifyConfig(thresholds=(0.5, 0.3))
    with pytest.raises(ValueError):
        DensifyConfig(iterations=0)
    with pytest.raises(ValueError):
        DensifyConfig(thresholds=())


class TestReach:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.cfg = DensifyConfig(iterations=8)
        self.aff = compute_affinities(Image(rng.random((32, 32, 3))))
        self.dense = random_sparse(rng, (32, 32), 0.2)

    def mean_reach(self, sparse, conf_value, cfg=None):
        conf = ConfidenceMap(np.where(sparse.known, conf_value, 0.0))
        return reach(self.aff, sparse, conf, cfg or self.cfg).data.mean()

    def test_rises_with_confidence(self):
        assert self.mean_reach(self.dense, 0.3) < self.mean_reach(self.dense, 0.9)

    def test_falls_with_spacing(self):
        # every other anchor dropped: same confidence, wider spacing
        keep = self.dense.known & (np.arange(32)[:, None] % 2 == 0)
        sparser = SparseMap(np.where(keep, self.dense.values, 0.0), keep.astype(int))
        assert self.mean_reach(sparser, 0.8) < self.mean_reach(self.dense, 0.8)

    def test_bounded_and_confidence_free_when_disabled(self):
        out = reach(self.aff, self.dense, ConfidenceMap(np.where(self.dense.known, 0.5, 0.0)),
                    self.cfg).data
        assert out.min() >= 0.0 and out.max() <= 0.5 + 1e-12
        forced = DensifyConfig(iterations=8, use_confidence=False)
        assert self.mean_reach(self.dense, 0.5, forced) == self.mean_reach(self.dense, 1.0, forced)

    def test_iterations_capped(self):
        conf = ConfidenceMap(np.where(self.dense.known, 0.6, 0.0))
        field = SparseMap(np.where(self.dense.known, 0.6, 0.0), self.dense.known)

        def direct(iterations):
            cfg = DensifyConfig(iterations=iterations)
            return propagate(Image(field.values), self.aff, field, conf, cfg).data

        # a budget under the cap keeps its own bits; a larger one stops at the cap
        low = reach(self.aff, self.dense, conf, DensifyConfig(iterations=8)).data
        assert np.array_equal(low, direct(8))
        high = reach(self.aff, self.dense, conf, DensifyConfig()).data
        assert np.array_equal(high, direct(REACH_ITERATIONS))
        assert not np.array_equal(high, direct(24))


# the acceptance suite's trend noise: sigma, outlier fraction, rho
TREND_NOISE = (0.5, 0.3, 0.8)


def bundle_frame(bundle, n):
    """Frame n's affinities and accumulated 7-frame-window oracle matches under TREND_NOISE."""
    from rgbxalign.matching import accumulate_matches
    from rgbxalign.synthbench import NoiseModel, oracle_match

    sigma, outliers, rho = TREND_NOISE
    noise = NoiseModel(sigma=sigma, outlier_fraction=outliers, rho=rho)
    window = range(max(0, n - 3), min(len(bundle.frame_ids), n + 4))
    sets = [oracle_match(bundle, (n, m), noise, 3000, seed=n) for m in window]
    sp, conf = accumulate_matches(sets, [bundle.x_raw[m] for m in window], bundle.shape)
    return compute_affinities(bundle.rgb[n]), sp, conf


class TestHelperThread:
    """densify_multilevel shares its recurrences with a helper thread only on
    the main thread; the results are the serial loop's, bit for bit."""

    def run_on_main_and_in_worker(self, fn):
        on_main = fn()
        with ThreadPoolExecutor(max_workers=1) as pool:
            return on_main, pool.submit(fn).result()

    def test_same_bits_with_and_without_helper(self, small_bundle, monkeypatch):
        aff, sp, conf = bundle_frame(small_bundle, 2)
        assert sp.values.shape == (128, 128)
        cfg = DensifyConfig()
        threads = []
        real = densify.propagate

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(densify, "propagate", spy)

        def run():
            threads.clear()
            certainty = {}
            levels = densify_multilevel(aff, sp, conf, cfg, certainty)
            return levels, certainty, set(threads)

        (main_levels, main_cert, main_threads), (pool_levels, pool_cert, pool_threads) = (
            self.run_on_main_and_in_worker(run))
        assert len(pool_threads) == 1 and threading.main_thread() not in pool_threads
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if cpus >= 2:
            assert len(main_threads) == 2 and threading.main_thread() in main_threads
        assert list(main_levels) == list(pool_levels) == [0.15, 0.3, 0.5]
        assert main_cert == pool_cert and list(main_cert) == list(main_levels)
        for delta, img in main_levels.items():
            level_sp = threshold_sparse(sp, conf, delta)
            # the level's confidence zeroed off its support gives the same
            # bits: no computation reads a void pixel's confidence
            level_conf = ConfidenceMap(np.where(level_sp.known, conf.conf, 0.0))
            serial = real(init_dense(level_sp), aff, level_sp, level_conf, cfg).data
            assert np.array_equal(img.data, serial)
            assert np.array_equal(pool_levels[delta].data, serial)
            assert main_cert[delta] == float(reach(aff, level_sp, level_conf, cfg).data.mean())

    def test_first_failure_in_task_order_raised(self, small_bundle, monkeypatch):
        aff, sp, conf = bundle_frame(small_bundle, 2)
        real_init = densify.init_dense
        loose = threshold_sparse(sp, conf, 0.15).num_known

        def failing_init(level_sparse):
            # every level but the loosest fails, naming its known count
            if level_sparse.num_known < loose:
                raise DensifyError(f"level with {level_sparse.num_known} known")
            return real_init(level_sparse)

        def failing_reach(*args):
            raise DensifyError("reach failed")

        monkeypatch.setattr(densify, "init_dense", failing_init)
        monkeypatch.setattr(densify, "reach", failing_reach)
        middle = threshold_sparse(sp, conf, 0.3).num_known

        def run():
            with pytest.raises(DensifyError) as info:
                densify_multilevel(aff, sp, conf, DensifyConfig(iterations=6), {})
            return str(info.value)

        assert self.run_on_main_and_in_worker(run) == (f"level with {middle} known",) * 2
        monkeypatch.setattr(densify, "init_dense", real_init)
        assert self.run_on_main_and_in_worker(run) == ("reach failed",) * 2

    def test_reach_ranks_equal_full_budget_ranks(self, small_bundle):
        """The levels' ranks by REACH_ITERATIONS of reach equal their ranks by
        the full 24-iteration recurrence on the same field."""
        cfg = DensifyConfig()
        for n in range(len(small_bundle.frame_ids)):
            aff, sp, conf = bundle_frame(small_bundle, n)
            certainty = {}
            densify_multilevel(aff, sp, conf, cfg, certainty)
            full = []
            for delta in certainty:
                level_sp = threshold_sparse(sp, conf, delta)
                field = SparseMap(np.where(level_sp.known, conf.conf, 0.0), level_sp.known)
                full.append(propagate(Image(field.values), aff, field, conf, cfg).data.mean())
            assert len(certainty) == 3
            assert np.array_equal(rankdata(list(certainty.values())), rankdata(full)), n
