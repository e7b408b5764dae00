"""Raster types, codec round trips, and bilinear sampling."""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbxalign.errors import ImageIOError
from rgbxalign.imgcore import (
    ConfidenceMap,
    Image,
    Mask,
    SparseMap,
    bilinear_sample,
    gray_array,
    load_image,
    read_units_sidecar,
    save_image,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestImageType:
    def test_channels_and_shape(self, rng):
        img = Image(rng.random((12, 7, 3)))
        assert (img.height, img.width, img.channels) == (12, 7, 3)
        gray = Image(rng.random((5, 6)))
        assert gray.channels == 1

    def test_rejects_nan(self):
        data = np.ones((4, 4))
        data[2, 2] = np.nan
        with pytest.raises(ValueError):
            Image(data)

    def test_rejects_bad_units(self):
        with pytest.raises(ValueError):
            Image(np.zeros((4, 4)), units="kelvin")

    def test_rejects_two_channels(self):
        with pytest.raises(ValueError):
            Image(np.zeros((4, 4, 2)))

    def test_immutable(self, rng):
        img = Image(rng.random((4, 4)))
        with pytest.raises(ValueError):
            img.data[0, 0] = 0.5


class TestSparseMap:
    def test_void_is_count_zero(self):
        values = np.array([[1.0, -1.0], [0.0, 2.0]])
        counts = np.array([[1, 0], [0, 3]])
        sp = SparseMap(values, counts)
        assert sp.known.tolist() == [[True, False], [False, True]]
        assert sp.num_known == 2

    def test_nan_at_void_is_fine(self):
        sp = SparseMap(np.array([[np.nan, 1.0]]), np.array([[0, 1]]))
        assert sp.num_known == 1

    def test_nan_at_known_rejected(self):
        with pytest.raises(ValueError):
            SparseMap(np.array([[np.nan]]), np.array([[1]]))


class TestConfidenceMap:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            ConfidenceMap(np.array([[1.5]]))
        ConfidenceMap(np.array([[0.0, 1.0]]))


class TestLoadSave:
    @pytest.mark.parametrize("bit_depth,bound", [(8, 1 / 510), (16, 1 / 131070)])
    def test_png_gray_round_trip(self, tmp_path, rng, bit_depth, bound):
        img = Image(rng.random((64, 64)))
        save_image(img, tmp_path / "a.png", bit_depth=bit_depth)
        back = load_image(tmp_path / "a.png")
        assert np.abs(back.data - img.data).max() <= bound

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_png_rgb_round_trip(self, tmp_path, rng, bit_depth):
        img = Image(rng.random((16, 24, 3)))
        save_image(img, tmp_path / "c.png", bit_depth=bit_depth)
        back = load_image(tmp_path / "c.png")
        assert back.channels == 3
        assert np.abs(back.data - img.data).max() <= 1 / (2 * (2**bit_depth - 1))

    def test_full_scale_and_zero(self, tmp_path):
        img = Image(np.array([[1.0, 0.0]]))
        save_image(img, tmp_path / "e.png", bit_depth=8)
        back = load_image(tmp_path / "e.png")
        assert back.data[0, 0] == 1.0
        assert back.data[0, 1] == 0.0

    def test_16bit_midscale_value(self, tmp_path):
        # stored integer 32768 maps to exactly 32768/65535
        img = Image(np.array([[32768 / 65535]]))
        save_image(img, tmp_path / "m.png", bit_depth=16)
        assert load_image(tmp_path / "m.png").data[0, 0] == 32768 / 65535

    def test_constant_round_trip(self, tmp_path):
        img = Image(np.full((8, 8), 0.5))
        save_image(img, tmp_path / "k.png", bit_depth=16)
        assert np.abs(load_image(tmp_path / "k.png").data - 0.5).max() <= 1 / 131070

    def test_pgm_round_trip(self, tmp_path, rng):
        img = Image(rng.random((9, 13)))
        save_image(img, tmp_path / "p.pgm", bit_depth=16)
        back = load_image(tmp_path / "p.pgm")
        assert np.abs(back.data - img.data).max() <= 1 / 131070

    def test_pgm_ascii(self, tmp_path):
        (tmp_path / "a.pgm").write_text("P2\n# comment\n3 2\n255\n0 128 255\n10 20 30\n")
        img = load_image(tmp_path / "a.pgm")
        assert img.shape == (2, 3)
        assert img.data[0, 2] == 1.0

    @pytest.mark.parametrize("name, blob, want", [
        ("p5-maxval-1000", b"P5\n3 1\n1000\n" + np.array([0, 500, 1000], ">u2").tobytes(),
         [0.0, 0.5, 1.0]),
        ("p2-maxval-100", b"P2\n3 1\n100\n0 25 100\n", [0.0, 0.25, 1.0]),
        ("p5-maxval-15", b"P5\n2 1\n15\n" + bytes([3, 15]), [3 / 15, 1.0]),
    ])
    def test_pgm_scaled_by_its_maxval(self, tmp_path, name, blob, want):
        (tmp_path / f"{name}.pgm").write_bytes(blob)
        assert load_image(tmp_path / f"{name}.pgm").data[0].tolist() == want

    def test_pgm_rejects_rgb(self, tmp_path, rng):
        with pytest.raises(ImageIOError):
            save_image(Image(rng.random((4, 4, 3))), tmp_path / "x.pgm")

    def test_celsius_sidecar_round_trip(self, tmp_path, rng):
        img = Image(rng.random((12, 12)) * 60 - 20, units="celsius")
        save_image(img, tmp_path / "t.png", bit_depth=16)
        desc = read_units_sidecar(tmp_path / "t.png")
        assert desc is not None and desc.units == "celsius"
        back = load_image(tmp_path / "t.png")
        assert back.units == "celsius"
        assert np.abs(back.data - img.data).max() <= desc.scale / 2 + 1e-12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImageIOError):
            load_image(tmp_path / "nope.png")

    def test_garbage_file(self, tmp_path):
        (tmp_path / "g.png").write_bytes(b"not an image at all")
        with pytest.raises(ImageIOError):
            load_image(tmp_path / "g.png")

    @pytest.mark.parametrize("name", ["p.png", "p.pgm", "garbage.png"])
    def test_load_leaves_no_file_open(self, tmp_path, rng, name):
        path = tmp_path / name
        if name.startswith("garbage"):
            path.write_bytes(b"not an image at all")
        else:
            save_image(Image(rng.random((8, 8))), path, bit_depth=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                load_image(path)
            except ImageIOError:
                pass
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_truncated_png(self, tmp_path, rng):
        save_image(Image(rng.random((8, 8))), tmp_path / "t.png")
        blob = (tmp_path / "t.png").read_bytes()
        (tmp_path / "bad.png").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ImageIOError):
            load_image(tmp_path / "bad.png")

    def test_pil_reads_our_files(self, tmp_path, rng):
        PILImage = pytest.importorskip("PIL.Image")
        img = Image(rng.random((20, 30, 3)))
        save_image(img, tmp_path / "x.png", bit_depth=8)
        theirs = np.asarray(PILImage.open(tmp_path / "x.png"))
        ours = np.rint(img.data * 255).astype(np.uint8)
        assert np.array_equal(theirs, ours)

    def test_we_read_pil_files(self, tmp_path, rng):
        PILImage = pytest.importorskip("PIL.Image")
        arr = (rng.random((25, 18)) * 255).astype(np.uint8)
        PILImage.fromarray(arr, mode="L").save(tmp_path / "pil.png")
        back = load_image(tmp_path / "pil.png")
        assert np.array_equal(np.rint(back.data * 255).astype(np.uint8), arr)

    def test_16bit_rgb_manual_decode(self, tmp_path):
        # independent decode: filter-0 scanlines, big-endian 16-bit samples
        import struct
        import zlib

        img = Image(np.array([[[0.25, 0.5, 0.75]], [[1.0, 0.0, 0.5]]]))
        save_image(img, tmp_path / "r.png", bit_depth=16)
        blob = (tmp_path / "r.png").read_bytes()
        pos, idat = 8, b""
        while pos < len(blob):
            (length,) = struct.unpack(">I", blob[pos : pos + 4])
            tag = blob[pos + 4 : pos + 8]
            if tag == b"IDAT":
                idat += blob[pos + 8 : pos + 8 + length]
            pos += 12 + length
        raw = zlib.decompress(idat)
        row_bytes = 1 * 3 * 2
        samples = []
        for r in range(2):
            row = raw[r * (row_bytes + 1) : (r + 1) * (row_bytes + 1)]
            assert row[0] == 0
            samples.extend(struct.unpack(">3H", row[1:]))
        expect = np.rint(img.data.ravel() * 65535).astype(int).tolist()
        assert samples == expect


def _spec_png(arr, bit_depth, filters):
    """A PNG of `arr` (uint, (H, W) or (H, W, 3)) encoded straight from the
    PNG specification, scanline r filtered with filter type filters[r]."""
    import struct
    import zlib

    height, width = arr.shape[:2]
    channels = 1 if arr.ndim == 2 else 3
    bpp = channels * bit_depth // 8
    rows = arr.astype(">u2" if bit_depth == 16 else np.uint8).reshape(height, -1).view(np.uint8)

    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        return a if pa <= pb and pa <= pc else b if pb <= pc else c

    raw = bytearray()
    prior = [0] * rows.shape[1]
    for r, ftype in enumerate(filters):
        line = [int(v) for v in rows[r]]
        raw.append(ftype)
        for i, x in enumerate(line):
            a = line[i - bpp] if i >= bpp else 0
            b = prior[i]
            c = prior[i - bpp] if i >= bpp else 0
            pred = (0, a, b, (a + b) // 2, paeth(a, b, c))[ftype]
            raw.append((x - pred) % 256)
        prior = line

    def chunk(tag, payload):
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, 0 if channels == 1 else 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b""))


class TestPngFilters:
    """The Sub, Up, Average and Paeth scanline filters other encoders use."""

    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("filters", [
        [1] * 8, [2] * 8, [3] * 8, [4] * 8, [4, 3, 2, 1, 0, 4, 4, 1],
    ], ids=["sub", "up", "average", "paeth", "mixed"])
    def test_filtered_png_decodes(self, tmp_path, rng, bit_depth, channels, filters):
        maxval = 2**bit_depth - 1
        shape = (8, 8) if channels == 1 else (8, 8, 3)
        arr = rng.integers(0, maxval + 1, shape)
        arr[2:] = rng.integers(0, 4, arr[2:].shape)  # ties among Paeth's predictors
        arr[0, 0] = maxval  # carries past 255 in every filter's sum
        (tmp_path / "f.png").write_bytes(_spec_png(arr, bit_depth, filters))
        back = load_image(tmp_path / "f.png")
        assert np.array_equal(np.rint(back.data * maxval).astype(np.int64), arr)


class TestGrayscale:
    def test_luma_weights(self):
        assert gray_array(Image(np.ones((2, 2, 3))))[0, 0] == pytest.approx(1.0)
        red = np.zeros((2, 2, 3))
        red[:, :, 0] = 1.0
        assert gray_array(Image(red))[0, 0] == pytest.approx(0.299)

    def test_identity_for_gray(self, rng):
        img = Image(rng.random((4, 4)))
        assert gray_array(img) is img.data

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_range_preserved(self, seed):
        data = np.random.default_rng(seed).random((6, 6, 3))
        out = gray_array(Image(data))
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12


class TestBilinear:
    def test_exact_at_integers(self, rng):
        data = rng.random((10, 11))
        rows = np.array([0.0, 3.0, 9.0])
        cols = np.array([0.0, 5.0, 10.0])
        values, valid = bilinear_sample(data, rows, cols)
        assert valid.all()
        assert np.array_equal(values, data[rows.astype(int), cols.astype(int)])

    def test_midpoint(self):
        data = np.array([[0.0, 1.0], [1.0, 2.0]])
        values, valid = bilinear_sample(data, np.array([0.5]), np.array([0.5]))
        assert valid[0] and values[0] == pytest.approx(1.0)

    def test_out_of_bounds(self, rng):
        data = rng.random((5, 5))
        values, valid = bilinear_sample(data, np.array([-0.1, 4.5]), np.array([2.0, 2.0]))
        assert not valid.any()
        assert (values == 0.0).all()


def test_sparse_conf_void_agreement(rng):
    # constructors in this codebase keep the void set and zero-confidence set equal
    counts = (rng.random((8, 8)) < 0.4).astype(int)
    sp = SparseMap(rng.random((8, 8)) * counts, counts)
    conf = ConfidenceMap(np.where(sp.known, 0.7, 0.0))
    assert np.array_equal(conf.conf == 0.0, ~sp.known)


def test_mask_full():
    m = Mask.full(3, 4)
    assert m.bits.all() and m.shape == (3, 4)
