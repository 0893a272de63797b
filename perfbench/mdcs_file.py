"""Reader and writer for the MDCS2D dataset layout, written apart from the
program so that the benchmark can make inputs and check outputs without
trusting the code under test.

Layout (little-endian): magic b"MDCS2D\\0", u16 version, u32 metadata count
and (u32 length + utf-8) key/value pairs, u8 axis count and per axis name,
unit, u64 length and float64 values, u64 rows, u64 cols, complex64 payload,
then a CRC-32 over every preceding byte.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"MDCS2D\x00"


def _text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write(path, matrix, axes, metadata) -> None:
    """Write ``matrix`` (stored as complex64) with ``axes`` = ((name, unit,
    values), ...) and a str -> str ``metadata`` map."""
    parts = [MAGIC, struct.pack("<HI", 1, len(metadata))]
    for key, value in metadata.items():
        parts += [_text(key), _text(value)]
    parts.append(struct.pack("<B", len(axes)))
    for name, unit, values in axes:
        vals = np.ascontiguousarray(values, dtype="<f8")
        parts += [_text(name), _text(unit), struct.pack("<Q", vals.size),
                  vals.tobytes()]
    data = np.ascontiguousarray(matrix, dtype="<c8")
    parts += [struct.pack("<QQ", *data.shape), data.tobytes()]
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(payload + struct.pack("<I", zlib.crc32(payload)))


def read(path):
    """Return (matrix, axes, metadata); raise ValueError on a bad file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    payload = blob[:-4]
    if zlib.crc32(payload) != struct.unpack("<I", blob[-4:])[0]:
        raise ValueError(f"{path}: CRC-32 mismatch")
    if not payload.startswith(MAGIC):
        raise ValueError(f"{path}: bad magic")
    pos = len(MAGIC)

    def take(fmt):
        nonlocal pos
        vals = struct.unpack_from(fmt, payload, pos)
        pos += struct.calcsize(fmt)
        return vals

    def text():
        nonlocal pos
        (n,) = take("<I")
        pos += n
        return payload[pos - n:pos].decode("utf-8")

    _version, n_meta = take("<HI")
    metadata = {}
    for _ in range(n_meta):
        key = text()
        metadata[key] = text()
    axes = []
    for _ in range(take("<B")[0]):
        name, unit = text(), text()
        (length,) = take("<Q")
        axes.append((name, unit, np.frombuffer(payload, "<f8", length, pos)))
        pos += 8 * length
    rows, cols = take("<QQ")
    matrix = np.frombuffer(payload, "<c8", rows * cols, pos).reshape(rows, cols)
    if pos + 8 * rows * cols != len(payload):
        raise ValueError(f"{path}: payload length does not match its shape")
    return matrix, axes, metadata
