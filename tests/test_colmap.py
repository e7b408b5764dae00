"""COLMAP text model parsing and round trip."""

import pytest

from rgbxalign.colmap import parse_colmap_model, write_colmap_model
from rgbxalign.errors import ColmapParseError

CAMERAS = """# Camera list with one line of data per camera:
#   CAMERA_ID, MODEL, WIDTH, HEIGHT, PARAMS[]
# Number of cameras: 1
1 PINHOLE 640 480 525.0 525.0 320.0 240.0
"""

IMAGES = """# Image list with two lines of data per image:
#   IMAGE_ID, QW, QX, QY, QZ, TX, TY, TZ, CAMERA_ID, NAME
#   POINTS2D[] as (X, Y, POINT3D_ID)
1 1.0 0.0 0.0 0.0 0.5 -0.25 2.0 1 0000.png

"""


def write_model(tmp_path, cameras=CAMERAS, images=IMAGES):
    (tmp_path / "cameras.txt").write_text(cameras)
    (tmp_path / "images.txt").write_text(images)
    return tmp_path


def test_minimal_model(tmp_path):
    model = parse_colmap_model(write_model(tmp_path))
    assert set(model.cameras) == {1}
    cam = model.cameras[1]
    assert cam.model == "PINHOLE" and (cam.width, cam.height) == (640, 480)
    assert cam.params == (525.0, 525.0, 320.0, 240.0)
    img = model.images[1]
    assert img.name == "0000.png" and img.camera_id == 1
    assert img.qvec == (1.0, 0.0, 0.0, 0.0)


def test_comments_only_empty_model(tmp_path):
    write_model(tmp_path, cameras="# only comments\n", images="# nothing here\n")
    model = parse_colmap_model(tmp_path)
    assert model.cameras == {} and model.images == {}


def test_observation_lines_skipped(tmp_path):
    images = (
        "1 1.0 0.0 0.0 0.0 0.0 0.0 0.0 1 a.png\n"
        "100.25 200.5 -1 300.0 310.0 42\n"
        "2 0.0 1.0 0.0 0.0 1.0 0.0 0.0 1 b.png\n"
        "\n"
    )
    model = parse_colmap_model(write_model(tmp_path, images=images))
    assert set(model.images) == {1, 2}
    assert model.images[2].name == "b.png"


def test_non_unit_quaternion_rejected(tmp_path):
    images = "1 1.01 0.0 0.0 0.0 0.0 0.0 0.0 1 a.png\n"
    write_model(tmp_path, images=images)
    with pytest.raises(ColmapParseError):
        parse_colmap_model(tmp_path)


def test_unknown_camera_model_preserved(tmp_path):
    cameras = "7 WEIRD_LENS 100 100 1.0 2.0 3.0 4.0 5.0 6.0 7.0\n"
    images = "1 1.0 0.0 0.0 0.0 0.0 0.0 0.0 7 a.png\n"
    model = parse_colmap_model(write_model(tmp_path, cameras=cameras, images=images))
    assert model.cameras[7].model == "WEIRD_LENS"
    assert len(model.cameras[7].params) == 7


def test_missing_camera_reference(tmp_path):
    images = "1 1.0 0.0 0.0 0.0 0.0 0.0 0.0 99 a.png\n"
    write_model(tmp_path, images=images)
    with pytest.raises(ColmapParseError):
        parse_colmap_model(tmp_path)


def test_malformed_line_reports_lineno(tmp_path):
    write_model(tmp_path, cameras="1 PINHOLE nope 480\n")
    with pytest.raises(ColmapParseError) as err:
        parse_colmap_model(tmp_path)
    assert ":1:" in str(err.value)


def test_missing_files(tmp_path):
    with pytest.raises(ColmapParseError):
        parse_colmap_model(tmp_path)


def test_write_parse_round_trip(tmp_path):
    model = parse_colmap_model(write_model(tmp_path))
    out = tmp_path / "copy"
    write_colmap_model(model, out)
    again = parse_colmap_model(out)
    assert again == model


@pytest.mark.parametrize("file, text, lineno", [
    ("images", "1 nan 0.0 0.0 0.0 0.0 0.0 0.0 1 a.png\n", 1),
    ("images", "\n1 1.0 0.0 0.0 0.0 0.0 inf 0.0 1 a.png\n", 2),
    ("cameras", "1 PINHOLE 640 480 525.0 -inf 320.0 240.0\n", 1),
], ids=["nan-qvec", "inf-tvec", "inf-camera-param"])
def test_non_finite_value_rejected(tmp_path, file, text, lineno):
    # a NaN quaternion would pass the unit-norm check, as abs(nan - 1) > 1e-6
    # is false
    write_model(tmp_path, **{file: text})
    with pytest.raises(ColmapParseError, match=f"{file}.txt:{lineno}: non-finite"):
        parse_colmap_model(tmp_path)
