"""Propagation recurrence: affinities, anchoring, convergence, level logic."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rgbxalign.densify import (
    OFFSETS,
    AffinityField,
    DensifyConfig,
    _guidance_weights,
    compute_affinities,
    densify_multilevel,
    init_dense,
    propagate,
    _scan_anchors,
    reach,
    threshold_sparse,
)
from rgbxalign.errors import DensifyError
from rgbxalign.imgcore import ConfidenceMap, Image, SparseMap
from rgbxalign.metrics import psnr


def reference_recurrence(l0, weights, xm, anchor, iters):
    """Separately coded scalar loop of the anchored-neighborhood recurrence,
    on (K, H, W) weights paired with OFFSETS."""
    cur = l0.copy()
    height, width = cur.shape
    for _ in range(iters):
        nxt = np.zeros_like(cur)
        for r in range(height):
            for c in range(width):
                acc = 0.0
                for k, (dr, dc) in enumerate(OFFSETS):
                    rr, cc = r + dr, c + dc
                    neighbor = cur[rr, cc] if 0 <= rr < height and 0 <= cc < width else 0.0
                    acc = acc + weights[k, r, c] * neighbor
                nxt[r, c] = (1.0 - anchor[r, c]) * acc + anchor[r, c] * xm[r, c]
        cur = nxt
    return cur


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

    @pytest.mark.parametrize("shape", [(3, 30), (30, 3)])
    def test_guide_thinner_than_largest_radius(self, rng, shape):
        # every radius-4 neighbor lies off the raster in the thin dimension
        weights = _guidance_weights(Image(rng.random((*shape, 3))))
        assert np.abs(weights.sum(axis=0) - 1.0).max() < 1e-6
        for k, (dr, dc) in enumerate(OFFSETS):
            if abs(dr) >= shape[0] or abs(dc) >= shape[1]:
                assert not weights[k].any()

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


def idw_reference(d2, vals):
    """Inverse-square-distance fill of (P, k) anchors, nearest first, row by row."""
    out = np.empty(len(d2))
    for p, (dists, values) in enumerate(zip(d2.tolist(), vals.tolist())):
        num = den = 0.0
        for dist, value in zip(dists, values):
            w = 1.0 / dist
            num += w * (value - values[0])
            den += w
        out[p] = values[0] + num / den
    return out


def nearest_by_scan_order(known_coords, known_vals, pixel, k):
    """Every anchor sorted by (d2, dr, dc) from `pixel`; the first k."""
    dr = known_coords[:, 0] - pixel[0]
    dc = known_coords[:, 1] - pixel[1]
    order = np.lexsort((dc, dr, dr * dr + dc * dc))[:k]
    return (dr * dr + dc * dc)[order].astype(np.float64), known_vals[order]


def check_init_dense(sparse):
    """init_dense against brute force where the scan closes a pixel, against
    the k-d tree's 4 nearest elsewhere; returns (closed, handed over)."""
    out = init_dense(sparse).data
    known = sparse.known
    known_coords = np.argwhere(known)
    known_vals = sparse.values[known]
    void_coords = np.argwhere(~known)
    k = min(4, len(known_coords))
    scanned = _scan_anchors(sparse, void_coords, k)
    pending = np.arange(len(void_coords)) if scanned is None else scanned[2]
    closed = np.setdiff1d(np.arange(len(void_coords)), pending)
    if closed.size:
        anchors = [nearest_by_scan_order(known_coords, known_vals, void_coords[i], k)
                   for i in closed]
        expect = idw_reference(np.array([a[0] for a in anchors]), np.array([a[1] for a in anchors]))
        rows, cols = void_coords[closed].T
        assert np.array_equal(out[rows, cols], expect)
    if pending.size:
        tree = cKDTree(known_coords, balanced_tree=False, compact_nodes=False)
        _, idx = tree.query(void_coords[pending], k=k)
        idx = idx.reshape(len(pending), k)
        offsets = known_coords[idx] - void_coords[pending][:, None, :]
        expect = idw_reference((offsets * offsets).sum(axis=2).astype(np.float64), known_vals[idx])
        rows, cols = void_coords[pending].T
        assert np.array_equal(out[rows, cols], expect)
    assert np.array_equal(out[known], known_vals)
    return closed.size, pending.size


def random_sparse(rng, shape, fraction):
    counts = (rng.random(shape) < fraction).astype(int)
    return SparseMap(rng.random(shape) * counts, counts)


class TestAnchorScan:
    @pytest.mark.parametrize("shape", [(64, 64), (3, 30), (30, 3)])
    def test_random_map(self, rng, shape):
        closed, handed = check_init_dense(random_sparse(rng, shape, 0.15 if shape[0] > 3 else 0.3))
        assert closed > 0

    @pytest.mark.parametrize("n_known", [1, 2, 3])
    def test_fewer_than_four_known(self, rng, n_known):
        values = np.zeros((10, 12))
        counts = np.zeros((10, 12), dtype=int)
        flat = rng.choice(120, size=n_known, replace=False)
        counts.flat[flat] = 1
        values.flat[flat] = rng.random(n_known)
        check_init_dense(SparseMap(values, counts))

    def test_void_block_in_dense_map(self, rng):
        counts = (rng.random((96, 96)) < 0.9).astype(int)
        counts[40:72, 20:52] = 0
        closed, handed = check_init_dense(SparseMap(rng.random((96, 96)) * counts, counts))
        # the block's rim closes within the scan, its core goes to the tree
        assert closed > 0 and handed > 0

    def test_sparse_map_goes_to_the_tree(self, rng):
        sparse = random_sparse(rng, (512, 512), 0.02)
        closed, handed = check_init_dense(sparse)
        assert closed == 0 and handed == sparse.values.size - sparse.num_known

    def test_ties_follow_scan_order(self):
        # two anchors at d2 = 1 and four at d2 = 2 around (3, 3): of the d2 = 2
        # ring the two in the row above come first, the left one before the right
        values = np.zeros((7, 7))
        counts = np.zeros((7, 7), dtype=int)
        for (r, c), v in {(2, 3): 0.1, (3, 4): 0.2, (2, 2): 0.3, (2, 4): 0.4,
                          (4, 2): 0.5, (4, 4): 0.6}.items():
            values[r, c], counts[r, c] = v, 1
        sparse = SparseMap(values, counts)
        closed, _ = check_init_dense(sparse)
        assert closed > 0
        expect = idw_reference(np.array([[1.0, 1.0, 2.0, 2.0]]), np.array([[0.1, 0.2, 0.3, 0.4]]))
        assert init_dense(sparse).data[3, 3] == expect[0]


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
        out = init_dense(SparseMap(values, counts))
        assert out.data[4, 4] == pytest.approx(0.5, abs=1e-9)

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
        out = propagate(Image(values), aff, sp, ConfidenceMap(np.ones((16, 16))),
                        DensifyConfig())
        assert np.array_equal(out.data, values)

    def test_single_anchor_converges(self):
        values = np.zeros((32, 32))
        counts = np.zeros((32, 32), dtype=int)
        values[16, 16] = 1.0
        counts[16, 16] = 1
        sp = SparseMap(values, counts)
        cfg = DensifyConfig(iterations=200, tol=0.0)
        aff = compute_affinities(Image(np.full((32, 32, 3), 0.5)))
        out = propagate(init_dense(sp), aff, sp, ConfidenceMap(counts.astype(float)), cfg)
        assert np.abs(out.data - 1.0).max() < 0.01

    def test_bitwise_vs_reference(self, rng):
        # cm = 1 degenerates to the plain certainty recurrence
        for trial in range(5):
            sp = random_sparse(rng, (16, 16), 0.3)
            weights = _guidance_weights(Image(rng.random((16, 16, 3))))
            aff = AffinityField(weights.copy(), OFFSETS)
            cfg = DensifyConfig(iterations=4, tol=0.0)
            mine = propagate(init_dense(sp), aff, sp, ConfidenceMap(np.ones((16, 16))), cfg)
            xm = np.where(sp.known, sp.values, 0.0)
            ref = reference_recurrence(init_dense(sp).data, weights, xm,
                                       sp.known.astype(np.float64), 4)
            assert np.array_equal(mine.data, ref)

    # whole diagonals fall off these rasters; on the 3-wide one, offsets such
    # as (0, 2) and (1, -1) land on the same flat diagonal of the raster
    @pytest.mark.parametrize("shape", [(3, 30), (30, 3), (5, 7)])
    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_bitwise_vs_reference_on_thin_rasters(self, rng, shape, use_confidence):
        sp = random_sparse(rng, shape, 0.3)
        conf = ConfidenceMap(np.where(sp.known, rng.uniform(0.1, 1.0, shape), 0.0))
        weights = _guidance_weights(Image(rng.random((*shape, 3))))
        aff = AffinityField(weights.copy(), OFFSETS)
        cfg = DensifyConfig(iterations=6, tol=0.0, use_confidence=use_confidence)
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
        cfg = DensifyConfig(tol=0.0)
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
            level_sp, _ = threshold_sparse(sp, conf, delta)
            if prev is not None:
                assert np.all(~level_sp.known | prev)  # level k+1 subset of level k
            prev = level_sp.known


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
