"""Fidelity metrics and report plumbing."""

import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from rgbxalign.errors import MetricError
from rgbxalign.fuse_filter import SimilarityMatrix
from rgbxalign.imgcore import Image
from rgbxalign.metrics import (
    PSNR_INF,
    FrameMetrics,
    MetricReport,
    diag_percentiles,
    mae_rmse,
    psnr,
    ssim,
)
from rgbxalign.quantiles import quantile


class TestPsnr:
    def test_identical_infinite(self):
        img = Image(np.full((8, 8), 0.5))
        assert psnr(img, img) == PSNR_INF

    def test_constant_offset(self):
        a = Image(np.zeros((8, 8)))
        b = Image(np.full((8, 8), 0.1))
        assert psnr(a, b) == pytest.approx(20.0)

    def test_checker_inversion_zero(self):
        checker = np.indices((8, 8)).sum(axis=0) % 2
        a = Image(checker.astype(float))
        b = Image(1.0 - checker.astype(float))
        assert psnr(a, b) == pytest.approx(0.0)

    def test_symmetric(self, rng):
        a = Image(rng.random((10, 10)))
        b = Image(rng.random((10, 10)))
        assert psnr(a, b) == psnr(b, a)

    def test_dim_mismatch(self, rng):
        with pytest.raises(MetricError):
            psnr(Image(rng.random((4, 4))), Image(rng.random((5, 5))))


class TestSsim:
    def test_identical_one(self, rng):
        img = Image(rng.random((16, 16)))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_inverted_structure_negative(self, rng):
        base = gaussian_filter(rng.random((32, 32)), 2.0)
        base = 0.5 + 0.35 * (base - base.mean()) / (np.abs(base - base.mean()).max())
        a = Image(base)
        b = Image(1.0 - base)
        assert ssim(a, b) < 0.0

    def test_independent_noise_near_zero(self):
        vals = []
        for seed in range(8):
            r = np.random.default_rng(seed)
            vals.append(ssim(Image(r.random((24, 24))), Image(r.random((24, 24)))))
        assert abs(np.mean(vals)) <= 0.1

    def test_too_small(self, rng):
        with pytest.raises(MetricError):
            ssim(Image(rng.random((4, 4))), Image(rng.random((4, 4))))

    def test_grayscale_only(self, rng):
        with pytest.raises(MetricError):
            ssim(Image(rng.random((16, 16, 3))), Image(rng.random((16, 16, 3))))


class TestMaeRmse:
    def test_identical_zero(self, rng):
        img = Image(rng.random((8, 8)) * 30, units="celsius")
        assert mae_rmse(img, img) == (0.0, 0.0)

    def test_constant_offset_celsius(self):
        a = Image(np.full((8, 8), 20.0), units="celsius")
        b = Image(np.full((8, 8), 20.5), units="celsius")
        mae, rmse = mae_rmse(a, b)
        assert mae == pytest.approx(0.5) and rmse == pytest.approx(0.5)

    def test_alternating_error(self):
        sign = np.indices((8, 8)).sum(axis=0) % 2 * 2.0 - 1.0
        a = Image(np.full((8, 8), 10.0), units="celsius")
        b = Image(10.0 + sign, units="celsius")
        mae, rmse = mae_rmse(a, b)
        assert mae == pytest.approx(1.0) and rmse == pytest.approx(1.0)

    def test_unit_mismatch(self):
        a = Image(np.zeros((4, 4)), units="celsius")
        b = Image(np.zeros((4, 4)))
        with pytest.raises(MetricError):
            mae_rmse(a, b)


class TestDiagPercentiles:
    def test_linear_interpolation_convention(self):
        a = SimilarityMatrix(np.diag(np.arange(1.0, 101.0)), tau=0.01)
        p30, p50, p70, p90 = diag_percentiles(a)
        assert p50 == 50.5
        assert p30 == quantile(np.arange(1.0, 101.0), 0.3)

    def test_constant_diag(self):
        a = SimilarityMatrix(np.diag(np.full(5, 2.5)), tau=0.1)
        assert diag_percentiles(a) == [2.5] * 4

    def test_matches_sorted_oracle(self, rng):
        d = rng.uniform(-5, 5, 64)
        a = SimilarityMatrix(np.diag(d), tau=0.1)
        got = diag_percentiles(a)
        ordered = sorted(d)
        for p, value in zip((0.3, 0.5, 0.7, 0.9), got):
            h = p * (len(d) - 1)
            lo = math.floor(h)
            expect = ordered[lo] + (ordered[min(lo + 1, len(d) - 1)] - ordered[lo]) * (h - lo)
            assert value == pytest.approx(expect, abs=1e-12)

    def test_monotone(self, rng):
        d = rng.normal(size=30)
        a = SimilarityMatrix(np.diag(np.clip(d, -9, 9)), tau=0.1)
        got = diag_percentiles(a)
        assert got == sorted(got)


class TestReport:
    def test_aggregate_and_csv(self, tmp_path):
        report = MetricReport()
        report.frames.append(FrameMetrics("0000", psnr=30.0, ssim=0.9, mae=0.1, rmse=0.2,
                                          diag=(1.0, 2.0, 3.0, 4.0), self_match=-1.0,
                                          consistency=0.01))
        report.frames.append(FrameMetrics("0001", psnr=32.0, ssim=0.8, mae=0.3, rmse=0.4,
                                          diag=(2.0, 3.0, 4.0, 5.0), self_match=-2.0,
                                          consistency=math.nan))
        agg = report.aggregate()
        assert agg.psnr == pytest.approx(31.0)
        assert agg.consistency == pytest.approx(0.01)
        report.write_csv(tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0].startswith("frame,psnr,ssim,mae,rmse,p30,p50,p70,p90")
        assert len(lines) == 4  # header + 2 frames + aggregate
        report.write_json(tmp_path / "m.json")
        import json

        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["aggregate"]["psnr"] == pytest.approx(31.0)
        assert payload["frames"][1]["consistency"] is None
