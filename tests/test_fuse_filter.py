"""Fusion, descriptors, similarity, self-match score, and patch rejection."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from rgbxalign.densify import compute_affinities
from rgbxalign.errors import FilterError
from rgbxalign.fuse_filter import (
    DESCRIPTOR_BINS,
    DESCRIPTOR_DIM,
    GUIDED_EPS,
    GUIDED_RADIUS,
    FeatureMatrix,
    PatchGrid,
    SimilarityMatrix,
    concentration_and_filter,
    _box_filter,
    _normalize_cells,
    enhance,
    factor_guide,
    fine_densify,
    fuse_levels,
    guided_filter,
    patch_descriptors,
    self_match_score,
    similarity_matrix,
)
from rgbxalign.imgcore import Image
from rgbxalign.metrics import psnr


def smooth_image(rng, shape=(96, 96), sigma=2.0):
    base = gaussian_filter(rng.random(shape), sigma)
    return Image((base - base.min()) / (base.max() - base.min()))


class TestEnhance:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_constant_identity(self, depth):
        const = Image(np.full((64, 64), 0.4))
        rgb = Image(np.full((64, 64, depth), 0.6))
        assert np.array_equal(enhance([const], rgb)[0].data, const.data)

    def test_denoises(self, rng):
        gt = smooth_image(rng)
        noisy = Image(np.clip(gt.data + rng.normal(0, 0.05, gt.shape), 0, 1))
        rgb = Image(np.stack([gt.data] * 3, axis=-1))
        assert psnr(enhance([noisy], rgb)[0], gt) > psnr(noisy, gt)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_range_contained(self, rng, depth):
        img = smooth_image(rng)
        rgb = Image(rng.random((96, 96, depth)))
        out = enhance([img], rgb)[0]
        assert out.data.min() >= img.data.min() - 1e-12
        assert out.data.max() <= img.data.max() + 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(FilterError):
            enhance([Image(rng.random((8, 8)))], Image(rng.random((9, 9, 3))))


def guided_filter_reference(guide, src):
    """The guided filter solved per pixel with np.linalg.solve, guide unfactored."""
    r = min(GUIDED_RADIUS, (min(src.shape) - 1) // 2)
    if r < 1:
        return src.copy()
    n = _box_filter(np.ones_like(src), r)
    depth = guide.shape[2]
    means = np.stack([_box_filter(guide[:, :, c], r) / n for c in range(depth)], axis=-1)
    mean_p = _box_filter(src, r) / n
    cov_ip = np.stack(
        [_box_filter(guide[:, :, c] * src, r) / n - means[:, :, c] * mean_p
         for c in range(depth)],
        axis=-1,
    )
    sigma = np.empty(src.shape + (depth, depth))
    for c1 in range(depth):
        for c2 in range(c1, depth):
            cov = (
                _box_filter(guide[:, :, c1] * guide[:, :, c2], r) / n
                - means[:, :, c1] * means[:, :, c2]
            )
            sigma[:, :, c1, c2] = cov
            sigma[:, :, c2, c1] = cov
        sigma[:, :, c1, c1] += GUIDED_EPS
    a = np.linalg.solve(sigma, cov_ip[:, :, :, None])[:, :, :, 0]
    b = mean_p - np.einsum("ijc,ijc->ij", a, means)
    mean_a = np.stack([_box_filter(a[:, :, c], r) / n for c in range(depth)], axis=-1)
    mean_b = _box_filter(b, r) / n
    return np.einsum("ijc,ijc->ij", mean_a, guide) + mean_b


class TestGuideFactor:
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("shape", [(64, 80), (2 * GUIDED_RADIUS, 40), (5, 5), (2, 9)])
    def test_matches_solve(self, rng, depth, shape):
        guide = gaussian_filter(rng.random(shape + (depth,)), (1.5, 1.5, 0))
        src = rng.random(shape)
        out = guided_filter(factor_guide(Image(guide)), src)
        assert np.abs(out - guided_filter_reference(guide, src)).max() <= 1e-12

    @pytest.mark.parametrize("depth", [1, 3])
    def test_constant_guide(self, rng, depth):
        # Sigma = eps * I: the filter is the window mean of the window mean
        guide = np.full((40, 48, depth), 0.3)
        src = rng.random((40, 48))
        out = guided_filter(factor_guide(Image(guide)), src)
        assert np.abs(out - guided_filter_reference(guide, src)).max() <= 1e-12

    def test_equal_channels(self, rng):
        # rank-1 Sigma: only eps keeps Sigma + eps * I invertible
        plane = gaussian_filter(rng.random((64, 64)), 2.0)
        guide = np.stack([plane] * 3, axis=-1)
        src = rng.random((64, 64))
        out = guided_filter(factor_guide(Image(guide)), src)
        assert np.abs(out - guided_filter_reference(guide, src)).max() <= 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(FilterError):
            guided_filter(factor_guide(Image(rng.random((8, 8, 3)))), rng.random((8, 9)))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_levels_together_equal_alone(self, rng, depth):
        rgb = Image(rng.random((48, 56, depth)))
        levels = [smooth_image(rng, (48, 56)) for _ in range(3)]
        together = enhance(levels, rgb)
        assert len(together) == 3
        for level, out in zip(levels, together):
            assert np.array_equal(out.data, enhance([level], rgb)[0].data)


class TestFuseLevels:
    def test_mean(self):
        imgs = [Image(np.full((8, 8), v)) for v in (0.2, 0.4, 0.6)]
        assert fuse_levels(imgs).data[0, 0] == pytest.approx(0.4)

    def test_identical_passthrough(self, rng):
        img = Image(rng.random((8, 8)))
        fused = fuse_levels([img, img, img])
        assert np.abs(fused.data - img.data).max() < 1e-15

    def test_single_level(self, rng):
        img = Image(rng.random((8, 8)))
        assert np.array_equal(fuse_levels([img]).data, img.data)

    def test_empty_fails(self):
        with pytest.raises(FilterError):
            fuse_levels([])

    def test_certainty_rank_weights(self):
        # ranks 3, 1, 2: the most certain level weighs most
        imgs = [Image(np.full((8, 8), v)) for v in (0.2, 0.4, 0.6)]
        fused = fuse_levels(imgs, [0.9, 0.1, 0.5])
        assert fused.data[0, 0] == pytest.approx((3 * 0.2 + 1 * 0.4 + 2 * 0.6) / 6)

    def test_certainty_order_not_scale_decides(self, rng):
        imgs = [Image(rng.random((8, 8))) for _ in range(3)]
        cert = np.array([0.31, 0.30, 0.62])
        ref = fuse_levels(imgs, list(cert)).data
        for scaled in (cert * 100.0, cert + 5.0, np.array([0.5, 0.0, 1.0])):
            assert np.array_equal(fuse_levels(imgs, list(scaled)).data, ref)

    def test_tied_certainty_is_the_mean(self, rng):
        imgs = [Image(rng.random((8, 8))) for _ in range(3)]
        assert np.array_equal(fuse_levels(imgs, [0.4, 0.4, 0.4]).data, fuse_levels(imgs).data)
        # two tied levels share ranks 2 and 3
        fused = fuse_levels(imgs, [0.1, 0.7, 0.7]).data
        expect = (imgs[0].data + 2.5 * imgs[1].data + 2.5 * imgs[2].data) / 6.0
        assert np.abs(fused - expect).max() < 1e-15

    def test_certainty_count_mismatch_fails(self, rng):
        imgs = [Image(rng.random((8, 8))) for _ in range(3)]
        with pytest.raises(FilterError):
            fuse_levels(imgs, [0.1, 0.2])


class TestPatchGrid:
    def test_dims_and_remainder(self):
        grid = PatchGrid(70, 100)
        assert (grid.rows, grid.cols, grid.patches) == (2, 3, 6)
        rs, cs = grid.bounds(grid.patches - 1)
        assert rs.stop == 70 and cs.stop == 100  # remainder joins the last patch

    def test_too_small(self):
        with pytest.raises(FilterError):
            PatchGrid(20, 64)

    def test_stages_take_the_grid_of_their_image(self):
        with pytest.raises(FilterError, match="smaller than patch size"):
            patch_descriptors(Image(np.zeros((64, 20))))
        # a 96 x 96 image tiles into 9 patches, not 4
        with pytest.raises(FilterError, match="patch grid"):
            concentration_and_filter(Image(np.zeros((96, 96))), SimilarityMatrix(np.eye(4)))


def normalize_cells_reference(hist, gates, patches):
    """Cell by cell and patch by patch, as patch_descriptors first did."""
    n_cells = DESCRIPTOR_DIM // DESCRIPTOR_BINS
    rows = np.empty((patches, DESCRIPTOR_DIM))
    uniform_cell = np.full(DESCRIPTOR_BINS, 1.0 / np.sqrt(DESCRIPTOR_BINS))
    uniform = np.full(DESCRIPTOR_DIM, 1.0 / np.sqrt(DESCRIPTOR_DIM))
    for index in range(patches):
        desc = np.zeros(DESCRIPTOR_DIM)
        for cell in range(n_cells):
            h = hist[index * n_cells + cell]
            if h.sum() <= gates[index * n_cells + cell]:
                cell_vec = uniform_cell
            else:
                cell_vec = h / np.linalg.norm(h)
            desc[cell * DESCRIPTOR_BINS : (cell + 1) * DESCRIPTOR_BINS] = cell_vec
        norm = np.linalg.norm(desc)
        rows[index] = desc / norm if norm > 1e-12 else uniform
    return rows


class TestDescriptors:
    def test_normalization_matches_cell_loop(self, rng):
        patches = 12
        n = patches * DESCRIPTOR_DIM // DESCRIPTOR_BINS
        hist = rng.random((n, DESCRIPTOR_BINS)) ** 3
        hist[rng.random(n) < 0.2] = 0.0  # voteless cells
        hist[n - n // 12 :] = 0.0  # a voteless patch
        gates = np.where(rng.random(n) < 0.3, hist.sum(axis=1), 0.05)  # some exactly at the gate
        out = _normalize_cells(hist, gates, patches)
        assert np.array_equal(out, normalize_cells_reference(hist, gates, patches))
        assert (hist.sum(axis=1) <= gates).sum() > n // 5
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12


    def test_identical_bitwise(self, rng):
        img = smooth_image(rng)
        assert np.array_equal(patch_descriptors(img).mat, patch_descriptors(img).mat)

    def test_contrast_inversion_invariant(self, rng):
        img = smooth_image(rng)
        a = patch_descriptors(img).mat
        b = patch_descriptors(Image(1.0 - img.data)).mat
        assert np.abs(a - b).max() < 1e-6

    def test_constant_patch_uniform(self):
        img = Image(np.full((64, 64), 0.3))
        mat = patch_descriptors(img).mat
        assert np.allclose(mat, 1.0 / np.sqrt(mat.shape[1]))

    def test_rows_unit_norm(self, rng):
        img = Image(rng.random((96, 96, 3)))
        mat = patch_descriptors(img).mat
        assert np.abs(np.linalg.norm(mat, axis=1) - 1.0).max() < 1e-9


class TestSimilarity:
    def test_orthonormal_identity(self):
        f = FeatureMatrix(np.eye(4))
        sim = similarity_matrix(f, f)
        assert np.array_equal(sim.a, 10.0 * np.eye(4))

    def test_triple_loop_oracle(self, rng):
        def unit_rows(n, d):
            m = rng.normal(size=(n, d))
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        fa = FeatureMatrix(unit_rows(7, 16))
        fb = FeatureMatrix(unit_rows(7, 16))
        sim = similarity_matrix(fa, fb)
        brute = np.zeros((7, 7))
        for i in range(7):
            for j in range(7):
                acc = 0.0
                for k in range(16):
                    acc += fa.mat[i, k] * fb.mat[j, k]
                brute[i, j] = acc / 0.1
        assert np.abs(sim.a - brute).max() < 1e-9

    def test_row_scaling_bilinear(self, rng):
        m = rng.normal(size=(5, 8))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        f = FeatureMatrix(m)
        a1 = f.mat @ f.mat.T / 0.1
        a2 = f.mat @ (2.0 * f.mat).T / 0.1
        assert np.abs(a2 - 2.0 * a1).max() < 1e-9

    def test_dim_mismatch(self, rng):
        fa = FeatureMatrix(np.eye(3))
        fb = FeatureMatrix(np.eye(4))
        with pytest.raises(FilterError):
            similarity_matrix(fa, fb)


class TestSelfMatchScore:
    def test_identity_hand_case(self):
        assert self_match_score(SimilarityMatrix(np.eye(4), tau=1.0)) == -2.0

    def test_all_ones_hand_case(self):
        score = self_match_score(SimilarityMatrix(np.ones((2, 2)), tau=1.0))
        assert score == pytest.approx(-0.9)

    def test_zero_matrix_fails(self):
        with pytest.raises(FilterError):
            self_match_score(SimilarityMatrix(np.zeros((3, 3)), tau=1.0))

    def test_permutation_worsens(self, rng):
        for _ in range(100):
            d = rng.uniform(0.5, 1.0, 6)
            off = rng.uniform(0.0, 0.2, (6, 6))
            a = off - np.diag(np.diag(off)) + np.diag(d)
            perm = rng.permutation(6)
            while (perm == np.arange(6)).all():
                perm = rng.permutation(6)
            base = self_match_score(SimilarityMatrix(a, tau=1.0))
            shuffled = self_match_score(SimilarityMatrix(a[perm], tau=1.0))
            assert shuffled > base

    def test_zeroing_offdiag_improves(self, rng):
        d = np.diag(rng.uniform(0.5, 1.0, 5))
        noise = rng.uniform(0.05, 0.3, (5, 5))
        a = d + noise - np.diag(np.diag(noise))
        assert self_match_score(SimilarityMatrix(d, tau=1.0)) < self_match_score(
            SimilarityMatrix(a, tau=1.0)
        )


def brute_force_filter(diag):
    """Sort-based re-derivation of q, the threshold, and the rejection set."""
    d = sorted(diag)
    n = len(d)

    def q_at(p):
        h = p * (n - 1)
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        return d[lo] + (d[hi] - d[lo]) * (h - lo)

    q99 = q_at(0.99)
    if q99 <= 0:
        return 1.0, -np.inf, [False] * n
    q = min(max(q_at(0.5) / q99, 0.0), 1.0)
    theta = q_at(1.0 - q)
    return q, theta, [v < theta for v in diag]


class TestConcentrationFilter:
    def make_sim(self, diag, tau=0.1):
        return SimilarityMatrix(np.diag(diag), tau=tau)

    def test_constant_diagonal_rejects_nothing(self, rng):
        img = smooth_image(rng)
        res = concentration_and_filter(img, self.make_sim(np.full(9, 5.0)))
        assert res.q == 1.0
        assert not res.rejected_patches.any()
        assert res.sparse.num_known == 96 * 96

    def test_single_low_patch_rejected(self, rng):
        img = smooth_image(rng)
        grid = PatchGrid(96, 96)
        diag = np.array([8.0, 8.5, 9.0, 8.7, 8.9, 9.2, 8.6, 8.8, 1.0])
        res = concentration_and_filter(img, self.make_sim(diag))
        assert list(np.flatnonzero(res.rejected_patches)) == [8]
        rs, cs = grid.bounds(8)
        assert (~res.sparse.known[rs, cs]).all()
        assert (res.sparse.counts[rs, cs] == 0).all()
        assert (res.conf.conf[rs, cs] == 0.0).all()

    def test_matches_brute_force(self, rng):
        img = smooth_image(rng)
        grid = PatchGrid(96, 96)
        for _ in range(100):
            diag = rng.uniform(-1, 9.9, grid.patches)
            res = concentration_and_filter(img, self.make_sim(diag))
            q, theta, rejected = brute_force_filter(diag)
            assert res.q == pytest.approx(q, abs=1e-12)
            if np.isfinite(theta):
                assert res.threshold == pytest.approx(theta, abs=1e-12)
            assert list(res.rejected_patches) == rejected

    def test_rejection_monotone_in_diag(self, rng):
        img = smooth_image(rng)
        grid = PatchGrid(96, 96)
        diag = rng.uniform(0.5, 9.5, grid.patches)
        res = concentration_and_filter(img, self.make_sim(diag))
        if res.rejected_patches.any():
            worst_kept = diag[~res.rejected_patches].min()
            assert diag[res.rejected_patches].max() < worst_kept

    def test_degenerate_nonpositive(self, rng):
        img = smooth_image(rng)
        res = concentration_and_filter(img, self.make_sim(-np.abs(rng.random(9))))
        assert res.degenerate
        assert not res.rejected_patches.any()

    def test_survivor_confidence_normalized(self, rng):
        img = smooth_image(rng)
        grid = PatchGrid(96, 96)
        diag = rng.uniform(2.0, 9.0, grid.patches)
        res = concentration_and_filter(img, self.make_sim(diag))
        best = int(np.argmax(diag))
        rs, cs = grid.bounds(best)
        assert res.conf.conf[rs, cs].max() == pytest.approx(1.0)


class TestFineDensify:
    def test_no_rejection_close_to_redensify(self, small_bundle):
        # constant diagonal -> q = 1 -> nothing rejected; re-densifying the
        # fully anchored map must reproduce it closely
        from rgbxalign.densify import DensifyConfig

        n = 1
        rgb = small_bundle.rgb[n]
        xd = small_bundle.x_gt[n]
        grid = PatchGrid(*xd.shape)
        sim = SimilarityMatrix(np.diag(np.full(grid.patches, 8.0)), tau=0.1)
        res = concentration_and_filter(xd, sim)
        assert not res.rejected_patches.any()
        out = fine_densify(compute_affinities(rgb), res.sparse, res.conf, DensifyConfig())
        assert np.mean(np.abs(out.data - xd.data)) < 0.02

    def test_empty_filtered_fails(self, rng):
        from rgbxalign.densify import DensifyConfig
        from rgbxalign.errors import DensifyError
        from rgbxalign.imgcore import ConfidenceMap, SparseMap

        with pytest.raises(DensifyError):
            fine_densify(
                compute_affinities(Image(rng.random((32, 32, 3)))),
                SparseMap(np.zeros((32, 32)), np.zeros((32, 32), dtype=int)),
                ConfidenceMap(np.zeros((32, 32))),
                DensifyConfig(),
            )
