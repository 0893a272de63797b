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
offset and returns the matrix as a view of that buffer.  A write puts a
complex64 matrix's own bytes, or any other matrix cast to complex64 in
64 KiB blocks, each cast once, checked, checksummed and written in one
pass, into a temporary file beside the target, which replaces the target
once complete: a refused or failed write creates nothing and leaves an
existing file untouched.  The finiteness mask is at most 64 KiB.
"""
from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumMismatch, IoFailure, VersionUnsupported
from .blocks import row_blocks

MAGIC = b"MDCS2D\x00"
FORMAT_VERSION = 1
_WRITE_BLOCK = 8_192         # complex64 entries of a write's cast block: 64 KiB


@dataclass
class DatasetFile:
    matrix: np.ndarray       # 2-d; written as complex64, read as a complex64 view
    axes: tuple[tuple[str, str, np.ndarray], ...]   # (name, unit, values)
    metadata: dict[str, str] = field(default_factory=dict)
    version: int = FORMAT_VERSION


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _check_finite(path, flat, axes=()) -> None:
    floats = flat.view(flat.real.dtype)         # contiguous and flat: a view
    blocks = row_blocks(floats.size, 1)
    for lo in blocks:
        if not np.isfinite(floats[lo:lo + blocks.step]).all():
            raise IoFailure(f"{path}: dataset matrix holds a NaN or an infinity")
    for name, _, values in axes:
        if not np.isfinite(values).all():
            raise IoFailure(f"{path}: axis {name!r} holds a NaN or an infinity")


def write_dataset(path, data: DatasetFile) -> None:
    matrix = np.ascontiguousarray(data.matrix)
    if matrix.ndim != 2:
        raise IoFailure(f"dataset matrix must be 2-d, got shape {matrix.shape}")
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
    flat, tmp = matrix.reshape(-1), f"{os.fspath(path)}.{os.getpid()}.tmp"
    _check_finite(path, flat[:0], data.axes)
    step = flat.size if flat.dtype == np.dtype("<c8") else _WRITE_BLOCK
    try:
        with open(tmp, "wb") as fh, np.errstate(over="ignore"):   # overflow is refused
            fh.write(header)
            checksum = zlib.crc32(header)
            for lo in row_blocks(flat.size, 1, step):
                block = flat[lo:lo + step].astype("<c8", copy=False)
                _check_finite(path, block)
                checksum = zlib.crc32(block, checksum)
                fh.write(block)
            fh.write(struct.pack("<I", checksum))
        # the target goes just before the rename: renaming over a file makes
        # ext4 write the new one back first, 3-5 ms per 8 MB on an x86-64 guest
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        os.rename(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write dataset {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):      # gone once it has replaced path
            os.remove(tmp)


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
    _check_finite(path, matrix.reshape(-1), axes)
    return DatasetFile(matrix, tuple(axes), metadata, version)
