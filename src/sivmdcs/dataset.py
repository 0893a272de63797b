"""Binary dataset container for 2D complex matrices with axis metadata.

Layout (little-endian throughout):

    magic     7 bytes   b"MDCS2D\\0"
    version   u16
    n_meta    u32, then n_meta pairs of (u32 len + utf-8) key, value
    n_axes    u8, per axis: name (u32+utf8), unit (u32+utf8),
              length (u64), float64 values
    rows u64, cols u64, row-major complex64 payload
    crc32     u32 over every preceding byte

Write-then-read round-trips bit-identically; a corrupted payload byte fails
with ChecksumMismatch.  Every malformed file, and every matrix or axis that
holds a NaN or an infinity, fails with IoFailure (or its kin above), never
with a bare Python error, and nothing non-finite is ever written.

Copy rule: the payload is never copied whole after it leaves the file or
the caller's matrix.  A read takes the whole file with one ``readinto`` into
an owned buffer, checks the CRC over a view of it, parses the header by
offset and returns the matrix as a view of that buffer.  A write checks and
checksums the payload before it opens the file, then writes it after the
header: a complex64 matrix's own bytes, any other matrix cast to complex64
in 64 KiB blocks, once per pass.  The finiteness mask is at most 64 KiB.
"""
from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumMismatch, IoFailure, VersionUnsupported
from .response import _TABLE_ENTRIES

MAGIC = b"MDCS2D\x00"
FORMAT_VERSION = 1
_CAST_BLOCK = 8_192          # complex64 elements of a write's cast block: 64 KiB


@dataclass
class DatasetFile:
    matrix: np.ndarray       # 2-d; written as complex64, read as a complex64 view
    axes: tuple[tuple[str, str, np.ndarray], ...]   # (name, unit, values)
    metadata: dict[str, str] = field(default_factory=dict)
    version: int = FORMAT_VERSION


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _check_finite(path, blocks, axes) -> None:
    for block in blocks:
        floats = block.view(block.real.dtype)       # contiguous and flat: a view
        for lo in range(0, floats.size, _TABLE_ENTRIES):
            if not np.isfinite(floats[lo:lo + _TABLE_ENTRIES]).all():
                raise IoFailure(f"{path}: dataset matrix holds a NaN or an infinity")
    for name, _, values in axes:
        if not np.isfinite(values).all():
            raise IoFailure(f"{path}: axis {name!r} holds a NaN or an infinity")


def _c8_blocks(flat: np.ndarray):
    """A flat payload as complex64: itself, or its cast in 64 KiB blocks."""
    if flat.dtype == np.dtype("<c8"):
        return [flat]
    return (flat[lo:lo + _CAST_BLOCK].astype("<c8")
            for lo in range(0, flat.size, _CAST_BLOCK))


def write_dataset(path, data: DatasetFile) -> None:
    matrix = np.ascontiguousarray(data.matrix)
    if matrix.ndim != 2:
        raise IoFailure(f"dataset matrix must be 2-d, got shape {matrix.shape}")
    flat = matrix.reshape(-1)
    header = bytearray(MAGIC)
    header += struct.pack("<HI", data.version, len(data.metadata))
    for key, value in data.metadata.items():
        header += _pack_str(str(key)) + _pack_str(str(value))
    header += struct.pack("<B", len(data.axes))
    for name, unit, values in data.axes:
        vals = np.ascontiguousarray(values, dtype="<f8")
        header += _pack_str(name) + _pack_str(unit)
        header += struct.pack("<Q", vals.size) + vals.tobytes()
    header += struct.pack("<QQ", *matrix.shape)
    checksum = zlib.crc32(header)
    with np.errstate(over="ignore"):       # a cast that overflows is refused
        for block in _c8_blocks(flat):
            _check_finite(path, [block], ())
            checksum = zlib.crc32(block, checksum)
    _check_finite(path, (), data.axes)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            for block in _c8_blocks(flat):       # the second pass casts again
                fh.write(block)
            fh.write(struct.pack("<I", checksum))
    except OSError as exc:
        raise IoFailure(f"cannot write dataset {path}: {exc}") from exc


class _Cursor:
    """Bounds-checked reads by offset from a byte view."""

    def __init__(self, view: memoryview, path):
        self.view, self.path, self.pos = view, path, 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.view):
            raise IoFailure(f"{self.path}: truncated dataset: wanted {n} bytes "
                            f"at offset {self.pos}, {len(self.view) - self.pos} left")
        out = self.view[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<I")
        start = self.pos
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise IoFailure(f"{self.path}: text at offset {start} is not "
                            f"UTF-8") from None


def read_dataset(path) -> DatasetFile:
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            # The payload ends 4 bytes before EOF, so the file size alone
            # fixes the offset that puts it on an 8-byte boundary.
            skip = -(size - 4) % 8
            buf = np.empty(skip + size, np.uint8)
            got = fh.readinto(buf[skip:])
    except OSError as exc:
        raise IoFailure(f"cannot read dataset {path}: {exc}") from exc
    if got != size:
        raise IoFailure(f"{path}: read {got} of {size} bytes")
    if size < len(MAGIC) + 6:
        raise IoFailure(f"{path} is too short to be a dataset file")
    blob = buf[skip:]
    view = memoryview(blob)
    (stored,) = struct.unpack_from("<I", view, size - 4)
    if zlib.crc32(view[:-4]) != stored:
        raise ChecksumMismatch(f"{path}: checksum does not match payload")

    cur = _Cursor(view[:-4], path)
    if cur.take(len(MAGIC)) != MAGIC:
        raise IoFailure(f"{path}: bad magic string")
    (version,) = cur.unpack("<H")
    if version > FORMAT_VERSION:
        raise VersionUnsupported(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}")
    (n_meta,) = cur.unpack("<I")
    metadata = {}
    for _ in range(n_meta):
        key = cur.text()
        metadata[key] = cur.text()
    (n_axes,) = cur.unpack("<B")
    axes = []
    for _ in range(n_axes):
        name = cur.text()
        unit = cur.text()
        (length,) = cur.unpack("<Q")
        values = np.frombuffer(cur.take(8 * length), dtype="<f8").copy()
        axes.append((name, unit, values))
    rows, cols = cur.unpack("<QQ")
    left = size - 4 - cur.pos
    if 8 * rows * cols != left:
        raise IoFailure(f"{path}: a {rows}x{cols} matrix needs {8 * rows * cols} "
                        f"payload bytes, the file holds {left}")
    matrix = blob[cur.pos:size - 4].view("<c8").reshape(rows, cols)
    _check_finite(path, [matrix.reshape(-1)], axes)
    return DatasetFile(matrix, tuple(axes), metadata, version)
