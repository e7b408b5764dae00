"""Core raster types, value conventions, and lossless image I/O.

All rasters are float64 numpy arrays in row-major (row, col) order.
RGB values live in [0, 1]; X-modality values live in [0, 1] or in physical
units (currently degrees Celsius) as declared by the image's units tag.
PNG (8/16-bit, grayscale and RGB) and PGM (P2/P5) are read and written by a
small built-in codec so that 16-bit three-channel files and byte-identical
output hashes work the same everywhere. The config dataclasses check
their field types here too.
"""

from __future__ import annotations

import dataclasses
import numbers
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ImageIOError

UNITS_NORMALIZED = "normalized"
UNITS_CELSIUS = "celsius"
_VALID_UNITS = (UNITS_NORMALIZED, UNITS_CELSIUS)

# ITU-R BT.601 luma weights; the conversion convention for every stage that
# needs a single guidance channel.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


# the type each field annotation asks for, and its name; the annotations are
# strings, as `from __future__ import annotations` leaves them
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "bool": (bool, "true or false"),
}


def _check_field_types(obj) -> None:
    """Raise TypeError naming the first field of the dataclass `obj` that is
    annotated int, float or bool and holds another type. numpy scalars pass;
    a bool is neither an int nor a float."""
    for f in dataclasses.fields(obj):
        kind = _FIELD_TYPES.get(f.type)
        if kind is None:
            continue
        cls, name = kind
        value = getattr(obj, f.name)
        if not isinstance(value, cls) or (isinstance(value, bool) and cls is not bool):
            raise TypeError(f"{f.name} must be {name}, got {value!r}")


@dataclass(frozen=True)
class Image:
    """Dense raster: (H, W) float64 for one channel, (H, W, 3) for RGB."""

    data: np.ndarray
    units: str = UNITS_NORMALIZED

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 3 and data.shape[2] == 1:
            data = data[:, :, 0]
        if data.ndim not in (2, 3):
            raise ValueError(f"image array must be 2-D or 3-D, got shape {data.shape}")
        if data.ndim == 3 and data.shape[2] != 3:
            raise ValueError(f"multi-channel images must have 3 channels, got {data.shape[2]}")
        if data.size == 0:
            raise ValueError("empty image")
        if not np.all(np.isfinite(data)):
            raise ValueError("image contains non-finite values")
        if self.units not in _VALID_UNITS:
            raise ValueError(f"unknown units tag {self.units!r}")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 2 else self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]


@dataclass(frozen=True)
class SparseMap:
    """Partially observed X raster.

    `known` is the boolean support mask (a non-zero entry counts as True): a
    pixel is void where it is False, and the map's value there, like a
    confidence there, is never read. The mask, not a sentinel value, marks
    the void, so a map derived from another, such as a threshold level or
    the filtered map, can share its parent's values unchanged. `units` tags
    the values as an Image's does, and passes on to the dense rasters made
    from them.
    """

    values: np.ndarray
    known: np.ndarray
    units: str = UNITS_NORMALIZED

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        known = np.asarray(self.known, dtype=bool)
        if values.ndim != 2 or known.shape != values.shape:
            raise ValueError("values and known must be matching 2-D arrays")
        if self.units not in _VALID_UNITS:
            raise ValueError(f"unknown units tag {self.units!r}")
        if not np.all(np.isfinite(values[known])):
            raise ValueError("non-finite value at a known pixel")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "known", _freeze(known))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def num_known(self) -> int:
        return int(np.count_nonzero(self.known))


@dataclass(frozen=True)
class ConfidenceMap:
    """Per-pixel confidence raster in [0, 1]. Paired with a SparseMap, its
    entries at the map's void pixels are never read."""

    conf: np.ndarray

    def __post_init__(self) -> None:
        conf = np.asarray(self.conf, dtype=np.float64)
        if conf.ndim != 2:
            raise ValueError("confidence raster must be 2-D")
        if not np.all(np.isfinite(conf)) or conf.min() < 0.0 or conf.max() > 1.0:
            raise ValueError("confidence values must be finite and within [0, 1]")
        object.__setattr__(self, "conf", _freeze(conf))

    @property
    def shape(self) -> tuple[int, int]:
        return self.conf.shape


@dataclass(frozen=True)
class Mask:
    """Boolean per-pixel mask."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("mask must be 2-D")
        object.__setattr__(self, "bits", _freeze(bits))

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape

    @staticmethod
    def full(height: int, width: int, value: bool = True) -> "Mask":
        return Mask(np.full((height, width), value, dtype=bool))


@dataclass(frozen=True)
class UnitsDescriptor:
    """Sidecar mapping stored integers to physical values: v = raw * scale + offset."""

    units: str = UNITS_NORMALIZED
    scale: float = 1.0
    offset: float = 0.0


# ---------------------------------------------------------------------------
# PNG codec (bit depths 8/16, grayscale and RGB, no palette / interlace)
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _write_png(path: Path, arr: np.ndarray, bit_depth: int) -> None:
    if bit_depth not in (8, 16):
        raise ImageIOError(f"unsupported PNG bit depth {bit_depth}")
    gray = arr.ndim == 2
    color_type = 0 if gray else 2
    height, width = arr.shape[:2]
    dtype = np.uint8 if bit_depth == 8 else ">u2"
    pixels = arr.astype(dtype)
    rows = pixels.reshape(height, -1).view(np.uint8)
    # filter type 0 on every scanline: simple, valid, and byte-deterministic
    raw = b"".join(b"\x00" + rows[r].tobytes() for r in range(height))
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    payload = (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )
    try:
        path.write_bytes(payload)
    except OSError as exc:
        raise ImageIOError(f"cannot write {path}: {exc}") from exc


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter_scanlines(data: bytes, height: int, row_bytes: int, bpp: int) -> bytearray:
    out = bytearray(height * row_bytes)
    prior = bytearray(row_bytes)
    pos = 0
    for r in range(height):
        ftype = data[pos]
        line = bytearray(data[pos + 1 : pos + 1 + row_bytes])
        pos += 1 + row_bytes
        if ftype == 0:
            pass
        elif ftype == 1:
            for i in range(bpp, row_bytes):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:
            for i in range(row_bytes):
                line[i] = (line[i] + prior[i]) & 0xFF
        elif ftype == 3:
            for i in range(row_bytes):
                left = line[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + ((left + prior[i]) >> 1)) & 0xFF
        elif ftype == 4:
            for i in range(row_bytes):
                left = line[i - bpp] if i >= bpp else 0
                upleft = prior[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + _paeth(left, prior[i], upleft)) & 0xFF
        else:
            raise ImageIOError(f"unknown PNG filter type {ftype}")
        out[r * row_bytes : (r + 1) * row_bytes] = line
        prior = line
    return out


def _read_png(path: Path) -> tuple[np.ndarray, int]:
    blob = path.read_bytes()
    if blob[:8] != _PNG_SIG:
        raise ImageIOError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = b""
    while pos + 8 <= len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = payload
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if ihdr is None or len(ihdr) != 13:
        raise ImageIOError(f"{path}: missing or truncated IHDR")
    width, height, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if comp != 0 or filt != 0:
        raise ImageIOError(f"{path}: unsupported compression/filter method")
    if interlace != 0:
        raise ImageIOError(f"{path}: interlaced PNG not supported")
    if depth not in (8, 16) or color_type not in (0, 2):
        raise ImageIOError(
            f"{path}: unsupported PNG format (bit depth {depth}, color type {color_type})"
        )
    channels = 1 if color_type == 0 else 3
    bpp = channels * depth // 8
    row_bytes = width * bpp
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ImageIOError(f"{path}: corrupt image data: {exc}") from exc
    if len(raw) != height * (row_bytes + 1):
        raise ImageIOError(f"{path}: truncated image data")
    flat = _unfilter_scanlines(raw, height, row_bytes, bpp)
    if depth == 8:
        arr = np.frombuffer(bytes(flat), dtype=np.uint8)
    else:
        arr = np.frombuffer(bytes(flat), dtype=">u2").astype(np.uint16)
    arr = arr.reshape((height, width) if channels == 1 else (height, width, 3))
    return arr.astype(np.int64), 2**depth - 1


# ---------------------------------------------------------------------------
# PGM codec (P2 ascii / P5 binary, grayscale only)
# ---------------------------------------------------------------------------


def _read_pgm(path: Path) -> tuple[np.ndarray, int]:
    blob = path.read_bytes()
    magic = blob[:2]
    if magic not in (b"P2", b"P5"):
        raise ImageIOError(f"{path}: not a PGM file")

    # header tokens with '#' comments stripped
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3 and pos < len(blob):
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    if len(tokens) < 3:
        raise ImageIOError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageIOError(f"{path}: non-numeric PGM header") from exc
    if width < 1 or height < 1:
        raise ImageIOError(f"{path}: invalid PGM size {width}x{height}")
    if not 0 < maxval < 65536:
        raise ImageIOError(f"{path}: invalid PGM maxval {maxval}")
    if magic == b"P2":
        values = blob[pos:].split()
        if len(values) < width * height:
            raise ImageIOError(f"{path}: truncated PGM data")
        try:
            arr = np.array([int(v) for v in values[: width * height]], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ImageIOError(f"{path}: bad PGM sample: {exc}") from exc
    else:
        pos += 1  # single whitespace after maxval
        nbytes = width * height * (2 if maxval > 255 else 1)
        data = blob[pos : pos + nbytes]
        if len(data) < nbytes:
            raise ImageIOError(f"{path}: truncated PGM data")
        dtype = ">u2" if maxval > 255 else np.uint8
        arr = np.frombuffer(data, dtype=dtype).astype(np.int64)
    if arr.max(initial=0) > maxval:
        raise ImageIOError(f"{path}: sample exceeds declared maxval")
    return arr.reshape(height, width), maxval


def _write_pgm(path: Path, arr: np.ndarray, bit_depth: int) -> None:
    maxval = 255 if bit_depth == 8 else 65535
    dtype = np.uint8 if bit_depth == 8 else ">u2"
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode()
    try:
        path.write_bytes(header + arr.astype(dtype).tobytes())
    except OSError as exc:
        raise ImageIOError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Units sidecar
# ---------------------------------------------------------------------------


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".units")


def read_units_sidecar(path: Path) -> UnitsDescriptor | None:
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return None
    try:
        text = sidecar.read_text()
    except UnicodeDecodeError as exc:
        raise ImageIOError(f"{sidecar}: not a text file ({exc})") from exc
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ImageIOError(f"{sidecar}:{lineno}: malformed sidecar line {line!r}")
        fields[parts[0]] = parts[1]
    try:
        units = fields.get("units", UNITS_NORMALIZED)
        scale = float(fields.get("scale", 1.0))
        offset = float(fields.get("offset", 0.0))
    except ValueError as exc:
        raise ImageIOError(f"{sidecar}: bad numeric field: {exc}") from exc
    if units not in _VALID_UNITS:
        raise ImageIOError(f"{sidecar}: unknown units {units!r}")
    return UnitsDescriptor(units=units, scale=scale, offset=offset)


def write_units_sidecar(path: Path, desc: UnitsDescriptor) -> None:
    text = f"units {desc.units}\nscale {desc.scale!r}\noffset {desc.offset!r}\n"
    _sidecar_path(path).write_text(text)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def load_image(path: str | Path) -> Image:
    """Load an 8/16-bit PNG or PGM as an Image.

    Values are scaled to [0, 1] by the file's full scale: 2^depth - 1 for a
    PNG, the header's maxval for a PGM. If a units sidecar (`<file>.units`) is
    present, the raw integers instead map linearly to physical values via
    `raw * scale + offset` and the image carries the sidecar's units tag.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            head = fh.read(2)
        if head == _PNG_SIG[:2]:
            raw, full_scale = _read_png(path)
        elif head in (b"P2", b"P5"):
            raw, full_scale = _read_pgm(path)
        else:
            raise ImageIOError(f"{path}: unrecognized image format")
        sidecar = read_units_sidecar(path)
    except OSError as exc:
        raise ImageIOError(f"{path}: cannot read ({exc})") from exc
    # an empty raster, or non-finite values from a sidecar, is not an image
    try:
        if sidecar is not None:
            data = raw.astype(np.float64) * sidecar.scale + sidecar.offset
            return Image(data, units=sidecar.units)
        return Image(raw.astype(np.float64) / float(full_scale), units=UNITS_NORMALIZED)
    except ValueError as exc:
        raise ImageIOError(f"{path}: {exc}") from exc


def save_image(img: Image, path: str | Path, bit_depth: int = 16) -> None:
    """Save an Image losslessly up to quantization of the chosen bit depth.

    Normalized images quantize against the format's full scale. Images in
    physical units are min-max quantized and a sidecar records the linear
    mapping, so load(save(img)) agrees within half a quantization step.
    """
    path = Path(path)
    if bit_depth not in (8, 16):
        raise ImageIOError(f"unsupported bit depth {bit_depth}")
    maxval = 2**bit_depth - 1
    if img.units == UNITS_NORMALIZED:
        # tolerate float dust from convex-combination pipelines, nothing more
        if img.data.min() < -1e-9 or img.data.max() > 1.0 + 1e-9:
            raise ImageIOError("normalized image has values outside [0, 1]")
        ints = np.rint(np.clip(img.data, 0.0, 1.0) * maxval).astype(np.int64)
        sidecar = None
    else:
        lo = float(img.data.min())
        hi = float(img.data.max())
        scale = (hi - lo) / maxval if hi > lo else 1.0
        ints = np.rint((img.data - lo) / scale).astype(np.int64)
        sidecar = UnitsDescriptor(units=img.units, scale=scale, offset=lo)
    if path.suffix.lower() == ".pgm":
        if img.channels != 1:
            raise ImageIOError("PGM supports grayscale only")
        _write_pgm(path, ints, bit_depth)
    else:
        _write_png(path, ints, bit_depth)
    old_sidecar = _sidecar_path(path)
    if sidecar is not None:
        write_units_sidecar(path, sidecar)
    elif old_sidecar.exists():
        old_sidecar.unlink()


def _luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of an (H, W, 3) array."""
    r, g, b = LUMA_WEIGHTS
    return r * rgb[:, :, 0] + g * rgb[:, :, 1] + b * rgb[:, :, 2]


def gray_array(img: Image) -> np.ndarray:
    """BT.601 grayscale pixel array of an Image; its own data for one channel."""
    return img.data if img.channels == 1 else _luma(img.data)


def _pixel_grid(height: int, width: int) -> np.ndarray:
    """(row, col) of every pixel in row-major order, as (H*W, 2) floats."""
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return np.column_stack([rows.ravel(), cols.ravel()]).astype(np.float64)


def bilinear_sample(
    data: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample a raster at subpixel (row, col) positions.

    Returns (values, valid) where valid marks samples whose 2x2 support lies
    inside the raster; invalid samples are returned as 0. Integer positions
    reproduce raster values bitwise.
    """
    height, width = data.shape[:2]
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    valid = (rows >= 0.0) & (rows <= height - 1) & (cols >= 0.0) & (cols <= width - 1)

    r0 = np.clip(np.floor(rows), 0, height - 2).astype(np.int64)
    c0 = np.clip(np.floor(cols), 0, width - 2).astype(np.int64)
    fr = np.clip(rows - r0, 0.0, 1.0)
    fc = np.clip(cols - c0, 0.0, 1.0)
    if data.ndim == 3:
        fr = fr[..., None]
        fc = fc[..., None]
    # gather the 2x2 support through flat pixel indices (one index array
    # per corner is cheaper than a (row, col) pair)
    flat = data.reshape((height * width,) + data.shape[2:])
    i00 = r0 * width + c0
    v00 = flat[i00]
    v01 = flat[i00 + 1]
    v10 = flat[i00 + width]
    v11 = flat[i00 + width + 1]
    top = (1.0 - fc) * v00 + fc * v01
    bot = (1.0 - fc) * v10 + fc * v11
    out = (1.0 - fr) * top + fr * bot
    mask = valid if data.ndim == 2 else valid[..., None]
    out = np.where(mask, out, 0.0)
    return out, valid
