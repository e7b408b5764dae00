"""Matching: dedup, accumulation vs brute force, RANSAC, warping, serialization."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from rgbxalign import matching
from rgbxalign.errors import EstimationFailedError, MatchingError
from rgbxalign.imgcore import Image
from rgbxalign.matching import (
    ClassicalBackend,
    Homography,
    MatchSet,
    accumulate_matches,
    estimate_homography,
    load_matchset,
    round_to_pixel,
    save_matchset,
    warp_image,
)

from .reference import brute_force_accumulate, project, random_matchsets


class TestMatchSet:
    def test_dedup_keeps_highest_conf(self):
        p_rgb = np.array([[5.2, 5.2], [4.9, 5.1], [10.0, 10.0]])
        p_x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        ms = MatchSet("a", "b", p_rgb, p_x, np.array([0.5, 0.9, 0.7]))
        assert len(ms) == 2
        kept = {tuple(q) for q in round_to_pixel(ms.p_rgb)}
        assert kept == {(5, 5), (10, 10)}
        idx = list(round_to_pixel(ms.p_rgb)[:, 0]).index(5)
        assert ms.conf[idx] == 0.9

    def test_empty_by_default(self):
        ms = MatchSet("a", "b")
        assert len(ms) == 0
        for arr, shape in ((ms.p_rgb, (0, 2)), (ms.p_x, (0, 2)), (ms.conf, (0,))):
            assert arr.dtype == np.float64 and arr.shape == shape

    def test_rejects_bad_conf(self):
        with pytest.raises(MatchingError):
            MatchSet("a", "b", np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]), np.array([1.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_conf(self, bad):
        with pytest.raises(MatchingError, match="confidence"):
            MatchSet("a", "b", np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([[1.0, 1.0], [2.0, 2.0]]),
                     np.array([0.5, bad]))

    def test_round_trip_file(self, tmp_path, rng):
        ms = MatchSet(
            "0003", "0005",
            rng.uniform(0, 50, (20, 2)), rng.uniform(0, 50, (20, 2)), rng.random(20),
        )
        save_matchset(ms, tmp_path / "m.txt")
        back = load_matchset(tmp_path / "m.txt")
        assert back.rgb_frame == "0003" and back.x_frame == "0005"
        assert np.array_equal(back.p_rgb, ms.p_rgb)
        assert np.array_equal(back.conf, ms.conf)

    @pytest.mark.parametrize("body", [b"a b\n1\n1 2 abc 4 0.5\n", b"a b\n1\n\xff 2 3 4 0.5\n"],
                             ids=["non-numeric", "not-utf8"])
    def test_malformed_file_rejected(self, tmp_path, body):
        (tmp_path / "m.txt").write_bytes(body)
        with pytest.raises(MatchingError, match="m.txt"):
            load_matchset(tmp_path / "m.txt")

    def test_empty_file_round_trip(self, tmp_path):
        ms = MatchSet("a", "b", np.empty((0, 2)), np.empty((0, 2)), np.empty(0))
        save_matchset(ms, tmp_path / "e.txt")
        assert len(load_matchset(tmp_path / "e.txt")) == 0


class TestAccumulate:
    def test_single_match(self):
        x = Image(np.full((16, 16), 0.7))
        ms = MatchSet("t", "0", np.array([[10.0, 10.0]]), np.array([[3.0, 3.0]]), np.array([0.9]))
        sp, cf = accumulate_matches([ms], [x], (16, 16))
        assert sp.values[10, 10] == 0.7
        assert sp.known[10, 10]
        assert cf.conf[10, 10] == 0.9
        assert sp.num_known == 1

    def test_two_matches_same_pixel(self):
        x = Image(np.zeros((8, 8)))
        x2 = Image(np.full((8, 8), 0.6))
        x1 = Image(np.full((8, 8), 0.2))
        m1 = MatchSet("t", "0", np.array([[4.0, 4.0]]), np.array([[2.0, 2.0]]), np.array([1.0]))
        m2 = MatchSet("t", "1", np.array([[4.2, 3.9]]), np.array([[5.0, 5.0]]), np.array([0.5]))
        sp, cf = accumulate_matches([m1, m2], [x1, x2], (8, 8))
        assert sp.known[4, 4]
        assert sp.values[4, 4] == pytest.approx(0.4)
        assert cf.conf[4, 4] == pytest.approx(0.75)

    def test_wrong_target_rejected(self):
        sets = [MatchSet(target, "0", np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]),
                         np.array([1.0])) for target in ("a", "b")]
        with pytest.raises(MatchingError, match="more than one RGB frame"):
            accumulate_matches(sets, [Image(np.zeros((4, 4)))] * 2, (4, 4))

    def test_bitwise_vs_brute_force(self, rng):
        shape = (24, 24)
        sets, frames = random_matchsets(rng, 5, 150, shape)
        sp, cf = accumulate_matches(sets, frames, shape)
        values, count, conf = brute_force_accumulate(sets, frames, shape)
        assert np.array_equal(sp.known, count > 0)
        assert np.array_equal(sp.values[count > 0], values[count > 0])
        assert np.array_equal(cf.conf, conf)

    def test_oracle_roundtrip_matches_gt(self, small_bundle):
        from rgbxalign.synthbench import NoiseModel, oracle_match

        n = 2
        sets, frames = [], []
        for m in range(6):
            sets.append(oracle_match(small_bundle, (n, m), NoiseModel(), 800, seed=5))
            frames.append(small_bundle.x_raw[m])
        assert [(ms.rgb_frame, ms.x_frame) for ms in sets[:2]] == [("0002", "0000"),
                                                                   ("0002", "0001")]
        sp, cf = accumulate_matches(sets, frames, small_bundle.shape)
        known = sp.known
        gt = small_bundle.x_gt[n].data
        rmse = np.sqrt(np.mean((sp.values[known] - gt[known]) ** 2))
        assert rmse <= 0.02  # bilinear resampling budget
        assert np.all(cf.conf[known] == 1.0)
        assert np.all(cf.conf[~known] == 0.0)


class TestHomography:
    def test_normalized_and_invertible(self):
        h = Homography(2.0 * np.eye(3))
        assert h.h[2, 2] == 1.0
        with pytest.raises(ValueError):
            Homography(np.zeros((3, 3)))

    def test_exact_translation_recovery(self):
        sq = np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 0.0], [10.0, 10.0]])
        ms = MatchSet("a", "b", sq, sq + np.array([5.0, 0.0]), np.ones(4))
        hom, mask = estimate_homography(ms, reproj_thresh=1.0, max_iters=50, seed=3)
        expect = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(hom.h - expect).max() < 1e-6
        assert mask.all()

    def test_outlier_robustness(self, rng):
        h_true = np.array([[0.99, 0.01, 4.0], [-0.02, 1.02, -6.0], [1e-5, -1e-5, 1.0]])
        n = 200
        src = rng.uniform(10, 240, (n, 2))
        dst = project(h_true, src) + rng.normal(0, 0.5, (n, 2))
        out = rng.random(n) < 0.4
        dst[out] = rng.uniform(0, 250, (int(out.sum()), 2))
        ms = MatchSet("a", "b", src, dst, np.full(n, 0.7))
        hom, _ = estimate_homography(ms, reproj_thresh=2.0, max_iters=500, seed=0)
        gt_in = ~out
        err = np.linalg.norm(project(hom.h, src[gt_in]) - project(h_true, src[gt_in]), axis=1)
        assert err.mean() <= 1.0

    def test_too_few_matches(self):
        ms = MatchSet("a", "b", np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]), np.array([1.0]))
        with pytest.raises(EstimationFailedError):
            estimate_homography(ms)

    def test_collinear_fails(self):
        pts = np.column_stack([np.arange(10, dtype=float), np.arange(10, dtype=float)])
        ms = MatchSet("a", "b", pts, pts + 1.0, np.ones(10))
        with pytest.raises(EstimationFailedError):
            estimate_homography(ms, max_iters=30, seed=1)

    def test_deterministic(self, rng):
        src = rng.uniform(0, 100, (50, 2))
        dst = src + rng.normal(0, 1, (50, 2))
        ms = MatchSet("a", "b", src, dst, rng.random(50))
        h1, m1 = estimate_homography(ms, seed=42)
        h2, m2 = estimate_homography(ms, seed=42)
        assert np.array_equal(h1.h, h2.h)
        assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_scaling_invariance(self, rng, s):
        # Hartley normalization: scaling all coordinates (and the threshold)
        # by a power of two must not change the result
        h_true = np.array([[1.01, 0.02, 3.0], [0.01, 0.98, -2.0], [0.0, 0.0, 1.0]])
        src = rng.uniform(10, 200, (80, 2))
        dst = project(h_true, src) + rng.normal(0, 0.3, (80, 2))
        conf = rng.random(80)
        ms = MatchSet("a", "b", src, dst, conf)
        ms_s = MatchSet("a", "b", src * s, dst * s, conf)
        h1, m1 = estimate_homography(ms, reproj_thresh=2.0, seed=9)
        h2, m2 = estimate_homography(ms_s, reproj_thresh=2.0 * s, seed=9)
        assert np.array_equal(m1, m2)
        scale = np.diag([s, s, 1.0])
        back = np.linalg.inv(scale) @ h2.h @ scale
        back /= back[2, 2]
        assert np.abs(back - h1.h).max() < 1e-9

    def test_zero_confidence_matches_never_drawn(self, rng):
        h_true = np.array([[0.98, 0.03, 6.0], [-0.02, 1.01, -3.0], [2e-5, -1e-5, 1.0]])
        exact = np.array([[20.0, 30.0], [25.0, 210.0], [200.0, 40.0], [220.0, 230.0]])
        junk = rng.uniform(0, 250, (200, 2))
        src = np.concatenate([exact, junk])
        dst = np.concatenate([project(h_true, exact), rng.uniform(0, 250, (200, 2))])
        conf = np.concatenate([np.ones(4), np.zeros(200)])
        hom, mask = estimate_homography(MatchSet("a", "b", src, dst, conf), seed=2)
        assert np.abs(hom.h - h_true).max() < 1e-6
        assert np.array_equal(np.flatnonzero(mask), np.arange(4))

    def test_all_zero_confidence_draws_uniformly(self, rng):
        h_true = np.array([[1.02, -0.01, -4.0], [0.01, 0.99, 5.0], [0.0, 1e-5, 1.0]])
        src = rng.uniform(10, 240, (100, 2))
        ms = MatchSet("a", "b", src, project(h_true, src), np.zeros(100))
        hom, mask = estimate_homography(ms, seed=5)
        assert mask.all()
        assert np.abs(hom.h - h_true).max() < 1e-6

    @pytest.mark.parametrize("nonzero", [1, 3])
    def test_too_few_confident_matches(self, rng, nonzero):
        src = rng.uniform(0, 100, (20, 2))
        conf = np.zeros(20)
        conf[:nonzero] = 0.5
        with pytest.raises(EstimationFailedError, match="non-zero confidence"):
            estimate_homography(MatchSet("a", "b", src, src + 1.0, conf))

    @pytest.mark.parametrize("spread", [1e-3, 1e-2])
    def test_collapsed_x_coordinates_give_a_model(self, spread):
        # X coordinates collapsed onto one point: some models pass a test of
        # the unscaled determinant but are singular once scaled to
        # h[2,2] = 1, which made Homography(...) raise ValueError
        for seed in range(40):
            rng = np.random.default_rng(seed)
            src = rng.uniform(0, 200, (50, 2))
            dst = 50 + rng.normal(0, spread, (50, 2))
            hom, mask = estimate_homography(MatchSet("a", "b", src, dst, np.ones(50)))
            assert mask.sum() >= 4, seed

    def test_one_validity_rule(self):
        # the batch screen accepts exactly the matrices Homography accepts,
        # whatever their scale
        mats = np.stack([np.eye(3), 1e-5 * np.eye(3), np.diag([1.0, 1e-13, 1.0]),
                         np.diag([1.0, 1.0, 1e-13]), np.diag([1e-7, 1e-7, 1e5])])
        accepted = []
        for h in mats:
            try:
                Homography(h)
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert accepted == [True, True, False, False, False]
        assert matching._valid_homographies(mats).tolist() == accepted


def count_scored(monkeypatch):
    """Count the models scored over all matches, the refit's one included."""
    calls = []
    score = matching._symmetric_transfer_error

    def spy(*args):
        calls.append(1)
        return score(*args)

    monkeypatch.setattr(matching, "_symmetric_transfer_error", spy)
    return calls


def count_drawn(monkeypatch):
    """The sizes of the sample batches drawn."""
    drawn = []
    draw = matching._draw_samples

    def spy(weights, rng, count):
        drawn.append(count)
        return draw(weights, rng, count)

    monkeypatch.setattr(matching, "_draw_samples", spy)
    return drawn


class TestStopping:
    def test_noise_free_stops_at_once(self, rng, monkeypatch):
        h_true = np.array([[0.99, 0.01, 4.0], [-0.02, 1.02, -6.0], [1e-5, -1e-5, 1.0]])
        src = rng.uniform(10, 240, (200, 2))
        ms = MatchSet("a", "b", src, project(h_true, src), rng.random(200))
        scored = count_scored(monkeypatch)
        _, mask = estimate_homography(ms, max_iters=500, seed=0)
        assert mask.all()
        assert len(scored) <= 10

    def test_criterion_8_data_stops_early(self, monkeypatch):
        # the data of acceptance criterion 8: 40 % gross outliers
        h_true = np.array([[0.99, 0.015, 5.0], [-0.01, 1.01, -4.0], [1e-5, -2e-5, 1.0]])
        scored = count_scored(monkeypatch)
        counts = []
        for seed in range(20):
            trial_rng = np.random.default_rng(seed)
            src = trial_rng.uniform(10, 246, (200, 2))
            dst = project(h_true, src) + trial_rng.normal(0, 0.5, (200, 2))
            out = trial_rng.random(200) < 0.4
            dst[out] = trial_rng.uniform(0, 255, (int(out.sum()), 2))
            ms = MatchSet("a", "b", src, dst, np.full(200, 0.8))
            before = len(scored)
            hom, _ = estimate_homography(ms, reproj_thresh=2.0, max_iters=500, seed=seed)
            counts.append(len(scored) - before)
            inl = ~out
            err = np.linalg.norm(project(hom.h, src[inl]) - project(h_true, src[inl]), axis=1)
            assert err.mean() <= 1.0
        assert max(counts) <= 250

    def test_all_collinear_draws_the_cap(self, monkeypatch):
        pts = np.column_stack([np.arange(10, dtype=float), np.arange(10, dtype=float)])
        ms = MatchSet("a", "b", pts, pts + 1.0, np.ones(10))
        scored = count_scored(monkeypatch)
        drawn = count_drawn(monkeypatch)
        with pytest.raises(EstimationFailedError):
            estimate_homography(ms, max_iters=100, seed=1)
        assert sum(drawn) == 100
        assert not scored

    def test_default_cap_is_500(self, monkeypatch):
        pts = np.column_stack([np.arange(10, dtype=float), np.arange(10, dtype=float)])
        drawn = count_drawn(monkeypatch)
        with pytest.raises(EstimationFailedError):
            estimate_homography(MatchSet("a", "b", pts, pts + 1.0, np.ones(10)))
        assert sum(drawn) == 500


def has_collinear_triple(pts, eps=1e-6):
    """Scalar reference for `_collinear_samples`, one (4, 2) sample."""
    from itertools import combinations

    for i, j, k in combinations(range(len(pts)), 3):
        v1 = pts[j] - pts[i]
        v2 = pts[k] - pts[i]
        if abs(v1[0] * v2[1] - v1[1] * v2[0]) < eps:
            return True
    return False


class TestBatchedKernels:
    def test_batched_dlt_matches_scalar(self, rng):
        src = rng.normal(size=(200, 4, 2))
        dst = src + rng.normal(scale=0.3, size=(200, 4, 2))
        h, usable = matching._dlt(src, dst)
        assert usable.all()
        for k in range(200):
            ref, ok = matching._dlt(src[k : k + 1], dst[k : k + 1])
            assert ok[0]
            ref = ref[0]
            scale = np.abs(ref).max()
            assert np.abs(h[k] - ref).max() <= 1e-9 * scale

    def test_collinearity_matches_scalar(self, rng):
        pts = rng.normal(size=(300, 4, 2))
        # put a third point on (or within rounding of) the line of two others
        near = rng.random(300) < 0.5
        t = rng.normal(size=300)
        line = pts[:, 0] + t[:, None] * (pts[:, 1] - pts[:, 0])
        pts[near, 3] = line[near] + rng.choice([0.0, 1e-7, 1e-5], size=(int(near.sum()), 1))
        got = matching._collinear_samples(pts)
        want = np.array([has_collinear_triple(p) for p in pts])
        assert np.array_equal(got, want)
        assert 0 < want.sum() < 300

    def test_draws_follow_weights(self):
        """Each draw is proportional to weight among the matches left."""
        from itertools import permutations

        weights = np.array([0.0, 1.0, 0.0, 2.0, 3.0, 0.5, 0.0, 4.0])
        idx = matching._draw_samples(weights, np.random.default_rng(0), 20000)
        assert np.all(weights[idx] > 0)
        assert np.all(np.diff(np.sort(idx, axis=1), axis=1) > 0)
        # exact per-position marginals by enumerating every ordered sample
        want = np.zeros((4, len(weights)))
        for sample in permutations(np.flatnonzero(weights), 4):
            p, left = 1.0, weights.sum()
            for i in sample:
                p *= weights[i] / left
                left -= weights[i]
            want[np.arange(4), sample] += p
        got = np.stack([np.bincount(idx[:, k], minlength=len(weights)) for k in range(4)])
        assert np.abs(got / len(idx) - want).max() < 0.01


class TestWarp:
    def test_identity_bitwise(self, rng):
        img = Image(rng.random((20, 30)))
        out, valid = warp_image(img, Homography.identity(), (20, 30))
        assert np.array_equal(out.data, img.data)
        assert valid.bits.all()

    def test_translation_on_ramp(self):
        ramp = Image(np.tile(np.arange(40) / 39.0, (16, 1)))
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -5.0], [0.0, 0.0, 1.0]]))
        out, valid = warp_image(ramp, h, (16, 40))
        interior = out.data[:, 6:]
        assert np.abs(interior - ramp.data[:, 1:35]).max() < 1e-6
        assert not valid.bits[:, :5].any()

    def test_inverse_composition(self, rng):
        smooth = gaussian_filter(rng.random((48, 48)), 3.0)
        img = Image((smooth - smooth.min()) / (smooth.max() - smooth.min()))
        h = Homography(np.array([[1.0, 0.01, 1.5], [-0.01, 1.0, -2.0], [0.0, 0.0, 1.0]]))
        fwd, v1 = warp_image(img, h, (48, 48))
        back, v2 = warp_image(fwd, h.inverse(), (48, 48))
        inner = np.zeros((48, 48), dtype=bool)
        inner[8:-8, 8:-8] = True
        sel = inner & v1.bits & v2.bits
        assert np.abs(back.data[sel] - img.data[sel]).max() <= 0.02

    def test_two_layer_failure_mode(self, small_bundle):
        # single homography cannot align both depth layers
        from rgbxalign.synthbench import NoiseModel, oracle_match

        n = 2
        ms = oracle_match(small_bundle, (n, n), NoiseModel(), 1500, seed=1)
        hom, _ = estimate_homography(ms, reproj_thresh=2.0, seed=4)
        coords, valid = small_bundle.correspondence(n, n)
        pts = np.argwhere(np.ones(small_bundle.shape, dtype=bool)).astype(float)
        mapped = hom.apply(pts).reshape(*small_bundle.shape, 2)
        err = np.linalg.norm(mapped - coords, axis=2)
        fg = small_bundle.foreground_mask(n).bits & valid
        bg = ~small_bundle.foreground_mask(n).bits & valid
        assert np.median(err[fg]) >= 3.0
        assert np.median(err[bg]) <= 0.5


def zncc(a, b):
    """Zero-normalized cross-correlation of two equal-size patches."""
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom <= 1e-12:
        return 0.0
    return float(a @ b / denom)


def assert_brute_force_confidences(rgb, x):
    """Every classical match's confidence is max(0, zncc) at its X position."""
    from rgbxalign.imgcore import gray_array
    from rgbxalign.matching import _orientation_channels

    ms = ClassicalBackend().match_pair(rgb, x)
    assert len(ms) > 50
    g_rgb = _orientation_channels(gray_array(rgb))
    g_x = _orientation_channels(gray_array(x))
    for k in range(len(ms)):
        r, c = ms.p_rgb[k].astype(int)
        rx, cx = ms.p_x[k].astype(int)
        brute = zncc(g_rgb[r - 8 : r + 8, c - 8 : c + 8], g_x[rx - 8 : rx + 8, cx - 8 : cx + 8])
        assert ms.conf[k] == pytest.approx(max(0.0, brute), abs=1e-9), (r, c)


class TestClassicalBackend:
    def test_self_match_rate(self):
        rng = np.random.default_rng(17)
        rates = []
        for _ in range(10):
            tex = gaussian_filter(rng.random((128, 128)), 1.2)
            img = Image((tex - tex.min()) / (tex.max() - tex.min()))
            ms = ClassicalBackend().match_pair(img, img)
            assert len(ms) > 50
            dist = np.linalg.norm(ms.p_rgb - ms.p_x, axis=1)
            rates.append((dist <= 1.0).mean())
        assert np.mean(rates) >= 0.9

    def test_contrast_inversion(self):
        rng = np.random.default_rng(3)
        tex = gaussian_filter(rng.random((96, 96)), 1.5)
        tex = (tex - tex.min()) / (tex.max() - tex.min())
        ms = ClassicalBackend().match_pair(Image(tex), Image(1.0 - tex))
        dist = np.linalg.norm(ms.p_rgb - ms.p_x, axis=1)
        assert (dist <= 1.0).mean() >= 0.9

    def test_blank_x(self, rng):
        img = Image(rng.random((64, 64)))
        blank = Image(np.full((64, 64), 0.5))
        ms = ClassicalBackend().match_pair(img, blank)
        assert len(ms) == 0 or ms.conf.max() < 0.2

    def test_too_small_image(self, rng):
        tiny = Image(rng.random((10, 10)))
        ms = ClassicalBackend().match_pair(tiny, tiny)
        assert len(ms) == 0
        assert ms.warnings

    def test_scores_match_brute_force_zncc(self):
        rng = np.random.default_rng(5)
        tex = gaussian_filter(rng.random((96, 96)), 1.0)
        img = Image((tex - tex.min()) / (tex.max() - tex.min()))
        assert_brute_force_confidences(img, img)

    def test_scene_scores_match_brute_force_zncc(self):
        # a scene of the classical benchmark whose near-flat windows once got
        # confidences up to 1.0 from differenced running sums
        from rgbxalign.synthbench import SceneConfig, gen_sequence

        bundle = gen_sequence(SceneConfig(seed=100, size=128, frames=3, modality="nir-like"))
        assert_brute_force_confidences(bundle.rgb[1], bundle.x_raw[0])

    @pytest.mark.parametrize(
        "tex_shape, rgb_crop, x_crop",
        [
            # X larger than the RGB frame
            ((104, 100), np.s_[:96, :88], np.s_[3:, 2:]),
            # X far shorter: the lower keypoint bands reach no X row at all
            ((128, 96), np.s_[:, :], np.s_[3:51, :]),
        ],
        ids=["x-larger", "x-shorter"],
    )
    def test_search_matches_centered_reference(self, tex_shape, rgb_crop, x_crop):
        """Every search against an explicit centered ZNCC over all windows."""
        from rgbxalign.imgcore import gray_array
        from rgbxalign.matching import _orientation_channels

        rng = np.random.default_rng(8)
        tex = gaussian_filter(rng.random(tex_shape), 1.2)
        tex = (tex - tex.min()) / (tex.max() - tex.min())
        # a flat block (zero gradients inside) and a faint one, whose windows
        # have a variance far below that of the frame's running sums
        tex[10:40, 20:70] = 0.4
        tex[60:95, 5:30] = 0.6 + 1e-6 * rng.random((35, 25))
        # X is the contrast-inverted scene, shifted and of another size
        rgb, x = Image(tex[rgb_crop]), Image(1.0 - tex[x_crop])
        backend = ClassicalBackend()
        ms = backend.match_pair(rgb, x)

        patch, half, rad = backend.PATCH, backend.PATCH // 2, backend.SEARCH_RADIUS
        g_rgb = _orientation_channels(gray_array(rgb))
        g_x = _orientation_channels(gray_array(x))
        expect = []
        for r, c in backend._detect(np.hypot(g_rgb[:, :, 0], g_rgb[:, :, 1]), half):
            d = g_rgb[r - half : r + half, c - half : c + half]
            d = d - d.mean()
            r_lo, c_lo = max(half, r - rad), max(half, c - rad)
            r_hi = min(g_x.shape[0] - half, r + rad + 1)
            c_hi = min(g_x.shape[1] - half, c + rad + 1)
            if np.linalg.norm(d) <= 1e-12 or r_lo >= r_hi or c_lo >= c_hi:
                continue
            region = g_x[r_lo - half : r_hi + half - 1, c_lo - half : c_hi + half - 1]
            win = np.lib.stride_tricks.sliding_window_view(region, (patch, patch), axis=(0, 1))
            win = win - win.mean(axis=(2, 3, 4), keepdims=True)
            dot = np.einsum("abcij,ijc->ab", win, d)
            denom = np.sqrt(np.einsum("abcij,abcij->ab", win, win)) * np.linalg.norm(d)
            with np.errstate(invalid="ignore", divide="ignore"):
                scores = np.where(denom > 1e-12, dot / denom, -np.inf)
            br, bc = np.unravel_index(np.argmax(scores), scores.shape)
            if np.isfinite(scores[br, bc]) and scores[br, bc] > 0.0:
                expect.append((r, c, r_lo + br, c_lo + bc, min(scores[br, bc], 1.0)))
        expect = np.array(expect)
        assert len(expect) > 50
        assert np.array_equal(ms.p_rgb, expect[:, :2])
        assert np.array_equal(ms.p_x, expect[:, 2:4])
        assert np.abs(ms.conf - expect[:, 4]).max() <= 1e-9
