"""Image-fidelity and alignment metrics, with CSV/JSON reporting."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import MetricError
from .fuse_filter import SimilarityMatrix
from .imgcore import Image
from .quantiles import quantile

PSNR_INF = float("inf")
PEAK = 1.0  # full scale of normalized images, which span [0, 1]
DIAG_PERCENTILES = (30, 50, 70, 90)


def _check_dims(a: Image, b: Image) -> None:
    if a.shape != b.shape or a.channels != b.channels:
        raise MetricError(f"dimension mismatch: {a.shape}x{a.channels} vs {b.shape}x{b.channels}")


def _window_sums(arr: np.ndarray, win: int) -> np.ndarray:
    """Sum over every win x win window (valid positions), via integral image."""
    height, width = arr.shape
    cum = np.zeros((height + 1, width + 1))
    cum[1:, 1:] = np.cumsum(np.cumsum(arr, axis=0), axis=1)
    return cum[win:, win:] - cum[:-win, win:] - cum[win:, :-win] + cum[:-win, :-win]


def psnr(a: Image, b: Image) -> float:
    """10*log10(PEAK^2 / MSE); +inf sentinel for identical images."""
    _check_dims(a, b)
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return PSNR_INF
    return 10.0 * math.log10(PEAK * PEAK / mse)


def ssim(a: Image, b: Image) -> float:
    """Mean local SSIM over 8x8 windows, stride 1, K1=0.01 / K2=0.03."""
    _check_dims(a, b)
    if a.channels != 1:
        raise MetricError("ssim operates on grayscale images")
    win = 8
    height, width = a.shape
    if height < win or width < win:
        raise MetricError(f"image smaller than the {win}x{win} SSIM window")
    c1 = (0.01 * PEAK) ** 2
    c2 = (0.03 * PEAK) ** 2

    def means(arr: np.ndarray) -> np.ndarray:
        return _window_sums(arr, win) / (win * win)

    x = a.data
    y = b.data
    mu_x = means(x)
    mu_y = means(y)
    xx = means(x * x) - mu_x * mu_x
    yy = means(y * y) - mu_y * mu_y
    xy = means(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def mae_rmse(a: Image, b: Image) -> tuple[float, float]:
    """Mean absolute and root-mean-square error in the images' physical units."""
    _check_dims(a, b)
    if a.units != b.units:
        raise MetricError(f"unit mismatch: {a.units} vs {b.units}")
    diff = a.data - b.data
    return float(np.mean(np.abs(diff))), float(np.sqrt(np.mean(diff * diff)))


def diag_percentiles(a: SimilarityMatrix) -> list[float]:
    """Linear-interpolation DIAG_PERCENTILES of the similarity diagonal."""
    d = np.diag(a.a)
    if d.size == 0:
        raise MetricError("empty diagonal")
    return [quantile(d, p / 100.0) for p in DIAG_PERCENTILES]


@dataclass
class FrameMetrics:
    frame: str
    psnr: float = math.nan
    ssim: float = math.nan
    mae: float = math.nan
    rmse: float = math.nan
    diag: tuple[float, ...] = (math.nan,) * len(DIAG_PERCENTILES)
    self_match: float = math.nan
    consistency: float = math.nan

    def row(self) -> list:
        """The field values in REPORT_COLUMNS order, `diag` expanded."""
        return [
            v
            for f in fields(self)
            for v in (self.diag if f.name == "diag" else [getattr(self, f.name)])
        ]


# one column per FrameMetrics field, `diag` expanded into its percentiles
REPORT_COLUMNS = tuple(
    col
    for f in fields(FrameMetrics)
    for col in ([f"p{p}" for p in DIAG_PERCENTILES] if f.name == "diag" else [f.name])
)


@dataclass
class MetricReport:
    """Per-frame rows plus an aggregate row of arithmetic means."""

    frames: list[FrameMetrics] = field(default_factory=list)

    def aggregate(self) -> FrameMetrics:
        def mean_of(vals: list[float]) -> float:
            finite = [v for v in vals if not math.isnan(v)]
            if not finite:
                return math.nan
            return float(np.mean(finite))

        agg = FrameMetrics(frame="aggregate")
        for f in fields(FrameMetrics):
            values = [getattr(fm, f.name) for fm in self.frames]
            if f.name == "diag":
                agg.diag = tuple(
                    mean_of([d[i] for d in values]) for i in range(len(DIAG_PERCENTILES))
                )
            elif f.name != "frame":
                setattr(agg, f.name, mean_of(values))
        return agg

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for fm in self.frames:
                writer.writerow(fm.row())
            writer.writerow(self.aggregate().row())

    def write_json(self, path: str | Path) -> None:
        def encode(fm: FrameMetrics) -> dict:
            row = fm.row()
            return {
                col: (None if isinstance(v, float) and math.isnan(v) else v)
                for col, v in zip(REPORT_COLUMNS, row)
            }

        payload = {
            "frames": [encode(f) for f in self.frames],
            "aggregate": encode(self.aggregate()),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
