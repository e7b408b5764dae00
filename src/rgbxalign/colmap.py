"""COLMAP text-model ingestion (cameras.txt / images.txt)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ColmapParseError


@dataclass(frozen=True)
class ColmapCamera:
    camera_id: int
    model: str
    width: int
    height: int
    params: tuple[float, ...]


@dataclass(frozen=True)
class ColmapImage:
    image_id: int
    qvec: tuple[float, float, float, float]  # qw, qx, qy, qz
    tvec: tuple[float, float, float]
    camera_id: int
    name: str


@dataclass(frozen=True)
class ColmapModel:
    cameras: dict[int, ColmapCamera]
    images: dict[int, ColmapImage]

    def __post_init__(self) -> None:
        for img in self.images.values():
            norm = math.sqrt(sum(q * q for q in img.qvec))
            if abs(norm - 1.0) > 1e-6:
                raise ColmapParseError(
                    f"image {img.image_id}: quaternion norm {norm:.8f} not unit"
                )
            if img.camera_id not in self.cameras:
                raise ColmapParseError(
                    f"image {img.image_id}: unknown camera id {img.camera_id}"
                )

    def by_name(self) -> dict[str, ColmapImage]:
        return {img.name: img for img in self.images.values()}


def _data_lines(path: Path) -> list[tuple[int, str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ColmapParseError(f"{path}: not a UTF-8 text file ({exc})") from exc
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    return lines


def _check_finite(path: Path, lineno: int, values: tuple[float, ...]) -> None:
    # float() reads "nan" and "inf", which no camera or pose may hold
    if not all(map(math.isfinite, values)):
        raise ColmapParseError(f"{path}:{lineno}: non-finite value")


def _parse_cameras(path: Path) -> dict[int, ColmapCamera]:
    cameras = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) < 4:
            raise ColmapParseError(f"{path}:{lineno}: malformed camera line")
        try:
            camera_id = int(parts[0])
            width = int(parts[2])
            height = int(parts[3])
            params = tuple(float(p) for p in parts[4:])
        except ValueError as exc:
            raise ColmapParseError(f"{path}:{lineno}: {exc}") from exc
        _check_finite(path, lineno, params)
        # unknown model names are preserved opaquely with their raw params
        cameras[camera_id] = ColmapCamera(camera_id, parts[1], width, height, params)
    return cameras


def _parse_images(path: Path) -> dict[int, ColmapImage]:
    images = {}
    lines = _data_lines(path)
    # two lines per image: pose line, then the 2-D point observations
    # (which we skip; empty observation lines are stripped as blank already)
    idx = 0
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        if len(parts) < 10:
            raise ColmapParseError(f"{path}:{lineno}: malformed image line")
        try:
            image_id = int(parts[0])
            qvec = tuple(float(p) for p in parts[1:5])
            tvec = tuple(float(p) for p in parts[5:8])
            camera_id = int(parts[8])
        except ValueError as exc:
            raise ColmapParseError(f"{path}:{lineno}: {exc}") from exc
        _check_finite(path, lineno, qvec + tvec)
        name = parts[9]
        images[image_id] = ColmapImage(image_id, qvec, tvec, camera_id, name)
        # skip the observations line: (X, Y, POINT3D_ID) triples, so a token
        # count divisible by 3, which a 10-token pose line never has
        if idx + 1 < len(lines) and len(lines[idx + 1][1].split()) % 3 == 0:
            idx += 1
        idx += 1
    return images


def parse_colmap_model(model_dir: str | Path) -> ColmapModel:
    """Parse cameras.txt and images.txt from a COLMAP text model directory."""
    model_dir = Path(model_dir)
    cameras_path = model_dir / "cameras.txt"
    images_path = model_dir / "images.txt"
    for p in (cameras_path, images_path):
        if not p.exists():
            raise ColmapParseError(f"missing {p}")
    return ColmapModel(_parse_cameras(cameras_path), _parse_images(images_path))


def write_colmap_model(model: ColmapModel, out_dir: str | Path) -> None:
    """Write the model back in COLMAP text format (empty observation lines)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cam_lines = ["# Camera list with one line of data per camera:",
                 "#   CAMERA_ID, MODEL, WIDTH, HEIGHT, PARAMS[]"]
    for cam in sorted(model.cameras.values(), key=lambda c: c.camera_id):
        params = " ".join(repr(float(p)) for p in cam.params)
        cam_lines.append(f"{cam.camera_id} {cam.model} {cam.width} {cam.height} {params}")
    (out_dir / "cameras.txt").write_text("\n".join(cam_lines) + "\n")

    img_lines = ["# Image list with two lines of data per image:",
                 "#   IMAGE_ID, QW, QX, QY, QZ, TX, TY, TZ, CAMERA_ID, NAME",
                 "#   POINTS2D[] as (X, Y, POINT3D_ID)"]
    for img in sorted(model.images.values(), key=lambda i: i.image_id):
        q = " ".join(repr(float(v)) for v in img.qvec)
        t = " ".join(repr(float(v)) for v in img.tvec)
        img_lines.append(f"{img.image_id} {q} {t} {img.camera_id} {img.name}")
        img_lines.append("")
    (out_dir / "images.txt").write_text("\n".join(img_lines) + "\n")
