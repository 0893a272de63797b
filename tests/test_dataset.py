import hashlib
import struct
import zlib

import numpy as np
import pytest

from memory import peak_bytes
from sivmdcs.cli import EXIT_OK, EXIT_RUNTIME, main
from sivmdcs.dataset import (FORMAT_VERSION, DatasetFile, read_dataset,
                             write_dataset)
from sivmdcs.errors import (ChecksumMismatch, IoFailure, SivMdcsError,
                            VersionUnsupported)
from sivmdcs.io_utils import (dataset_to_signal, dataset_to_spectrum,
                              read_decay_csv, read_trace_csv,
                              signal_to_dataset, spectrum_to_dataset,
                              write_decay_csv, write_trace_csv,
                              write_tscan_csv)
from sivmdcs.response import Grid, TimeDomainSignal
from sivmdcs.spectra import DecayTrace, Trace1D, to_spectrum


def _dataset(seed=0):
    rng = np.random.default_rng(seed)
    matrix = (rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))).astype(np.complex64)
    axes = (("tau", "ps", np.arange(6.0)), ("t", "ps", np.arange(9.0) * 0.5))
    return DatasetFile(matrix, axes, {"kind": "time-domain", "note": "x"})


def test_round_trip_bit_identical(tmp_path):
    path = tmp_path / "a.mdcs"
    data = _dataset()
    write_dataset(path, data)
    again = read_dataset(path)
    assert np.array_equal(again.matrix, data.matrix)
    assert again.metadata == data.metadata
    assert again.version == FORMAT_VERSION
    for (n1, u1, v1), (n2, u2, v2) in zip(again.axes, data.axes):
        assert (n1, u1) == (n2, u2)
        assert np.array_equal(v1, v2)
    # writing the same content twice produces identical bytes
    path2 = tmp_path / "b.mdcs"
    write_dataset(path2, data)
    assert path.read_bytes() == path2.read_bytes()


def test_corrupted_payload_detected(tmp_path):
    path = tmp_path / "c.mdcs"
    write_dataset(path, _dataset())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        read_dataset(path)


def test_truncated_and_missing_files(tmp_path):
    path = tmp_path / "d.mdcs"
    write_dataset(path, _dataset())
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(IoFailure):
        read_dataset(path)
    with pytest.raises(IoFailure):
        read_dataset(tmp_path / "missing.mdcs")


def _with_crc(body: bytes) -> bytes:
    """``body`` followed by its own valid checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_bad_magic(tmp_path):
    path = tmp_path / "e.mdcs"
    write_dataset(path, _dataset())
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    # keep the checksum consistent so the magic check itself fires
    import struct
    import zlib
    payload = bytes(blob[:-4])
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    with pytest.raises(IoFailure):
        read_dataset(path)


def test_newer_version_rejected(tmp_path):
    import struct
    import zlib
    path = tmp_path / "f.mdcs"
    write_dataset(path, _dataset())
    blob = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<H", blob, 7, FORMAT_VERSION + 1)
    payload = bytes(blob)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    with pytest.raises(VersionUnsupported):
        read_dataset(path)


def test_non_2d_matrix_rejected(tmp_path):
    data = _dataset()
    data.matrix = data.matrix.ravel()
    with pytest.raises(IoFailure):
        write_dataset(tmp_path / "g.mdcs", data)


def _signal():
    rng = np.random.default_rng(1)
    grid = Grid(8, 8, 0.5, 0.5, 406.770)
    data = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    return TimeDomainSignal(data.astype(np.complex64), grid, 0.5, "heterodyne",
                            {"n_emitters": 3})


def test_signal_dataset_round_trip(tmp_path):
    signal = _signal()
    path = tmp_path / "sig.mdcs"
    write_dataset(path, signal_to_dataset(signal))
    again = dataset_to_signal(read_dataset(path))
    assert np.array_equal(again.data, signal.data)
    assert again.grid == signal.grid
    assert again.waiting_time_ps == signal.waiting_time_ps
    assert again.detection_mode == "heterodyne"


def test_one_point_axis_keeps_its_step(tmp_path):
    grid = Grid(1, 4, 0.25, 0.25, 406.770)
    signal = TimeDomainSignal(np.ones((1, 4), np.complex64), grid, 0.5, "pl")
    path = tmp_path / "row.mdcs"
    write_dataset(path, signal_to_dataset(signal))
    assert dataset_to_signal(read_dataset(path)).grid == grid


def test_spectrum_dataset_round_trip(tmp_path):
    spectrum = to_spectrum(_signal())
    path = tmp_path / "spec.mdcs"
    write_dataset(path, spectrum_to_dataset(spectrum))
    again = dataset_to_spectrum(read_dataset(path))
    assert np.array_equal(again.data, spectrum.data.astype(np.complex64))
    assert np.allclose(again.nu_tau_thz, spectrum.nu_tau_thz)
    assert again.pad_factor == 1
    assert again.parseval_norm == spectrum.parseval_norm


def test_dataset_kind_mismatch():
    with pytest.raises(IoFailure):
        dataset_to_spectrum(signal_to_dataset(_signal()))
    with pytest.raises(IoFailure):
        dataset_to_signal(spectrum_to_dataset(to_spectrum(_signal())))


def test_trace_csv_round_trip(tmp_path):
    trace = Trace1D(np.linspace(406.0, 407.0, 11), np.linspace(0.0, 2.0, 11),
                    valid=np.arange(11) % 3 != 0)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    header = path.read_text().splitlines()[0]
    assert header == "nu_t (THz),amplitude (arb),valid"
    again = read_trace_csv(path)
    assert np.array_equal(again.freqs_thz, trace.freqs_thz)
    assert np.array_equal(again.amplitude, trace.amplitude)
    assert np.array_equal(again.valid, trace.valid)


def test_decay_csv_round_trip(tmp_path):
    decay = DecayTrace(np.arange(5.0), np.exp(-np.arange(5.0) / 2.0))
    path = tmp_path / "decay.csv"
    write_decay_csv(path, decay)
    assert path.read_text().splitlines()[0] == "t_plus_tau (ps),amplitude (arb)"
    again = read_decay_csv(path)
    assert np.array_equal(again.time_ps, decay.time_ps)
    assert np.array_equal(again.amplitude, decay.amplitude)


def test_tscan_csv_layout(tmp_path):
    path = tmp_path / "scan.csv"
    write_tscan_csv(path, [(0.0, 1 + 1j), (250.0, 0.5 - 0.25j)])
    lines = path.read_text().splitlines()
    assert lines[0] == "T (ps),amplitude_real (arb),amplitude_imag (arb),amplitude_abs (arb)"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert float(cells[0]) == 250.0
    assert float(cells[3]) == pytest.approx(abs(0.5 - 0.25j))


def test_trace_csv_without_valid_column_reads_as_valid(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("nu_t (THz),amplitude (arb)\n406.0,1.0\n406.1,2.0,0\n")
    again = read_trace_csv(path)
    assert np.array_equal(again.amplitude, [1.0, 2.0])
    assert np.array_equal(again.valid, [True, False])


TRACE_HEADER = "nu_t (THz),amplitude (arb),valid\n"


@pytest.mark.parametrize("text,where", [
    ("", "line 1"),                                      # no header row
    ("406.7,1.0,1\n406.8,0.5,1\n", "line 1"),            # data where the header goes
    (TRACE_HEADER + "406.7,abc,1\n", "line 2"),          # non-numeric cell
    (TRACE_HEADER + "406.7,1.0,1\n406.8\n", "line 3"),   # short row
    (TRACE_HEADER + "406.7,1.0,1\n\n", "line 3"),        # blank row
    (TRACE_HEADER + "406.7,1.0,yes\n", "line 2"),        # non-numeric valid flag
    (TRACE_HEADER + "406.7,nan,1\n", "line 2"),          # non-finite cells
    (TRACE_HEADER + "406.7,1.0,1\n406.8,inf,1\n", "line 3"),
    (TRACE_HEADER + "-inf,1.0,1\n", "line 2"),
])
def test_malformed_csv_names_path_and_line(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    for read in (read_trace_csv, read_decay_csv):
        if read is read_decay_csv and "yes" in text:
            continue                  # the decay reader reads two columns only
        with pytest.raises(IoFailure) as excinfo:
            read(path)
        assert str(path) in str(excinfo.value)
        assert where in str(excinfo.value)


def test_not_a_trace_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("only-one-column\n1.0\n")
    with pytest.raises(IoFailure):
        read_trace_csv(path)


# --- dataset boundary: what the file chain must refuse with exit 3 ----------

def _cli_refuses(tmp_path, command, path):
    out = tmp_path / "out"
    assert main([command, str(path), "--out-dir", str(out),
                 "--output", "x"]) == EXIT_RUNTIME
    assert not (out / "x").exists()


def test_nan_payload_under_valid_crc_is_refused(tmp_path, capsys):
    path = tmp_path / "sig.mdcs"
    write_dataset(path, signal_to_dataset(_signal()))
    blob = bytearray(path.read_bytes()[:-4])
    rows, cols = _signal().data.shape
    struct.pack_into("<f", blob, len(blob) - 8 * rows * cols, float("nan"))
    path.write_bytes(_with_crc(bytes(blob)))
    with pytest.raises(IoFailure, match="NaN"):
        read_dataset(path)
    for command in ("spectrum", "lineout"):
        _cli_refuses(tmp_path, command, path)
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_or_axis_is_never_written(tmp_path, value):
    data = _dataset()
    data.matrix[2, 3] = complex(0.0, value)
    with pytest.raises(IoFailure):
        write_dataset(tmp_path / "m.mdcs", data)
    data = _dataset()
    data.axes[1][2][4] = value
    with pytest.raises(IoFailure):
        write_dataset(tmp_path / "a.mdcs", data)
    assert not list(tmp_path.iterdir())


def test_metadata_that_is_not_utf8_is_io_failure(tmp_path):
    path = tmp_path / "u.mdcs"
    write_dataset(path, _dataset())
    blob = bytearray(path.read_bytes()[:-4])
    blob[blob.index(b"note") + 8] = 0xFF        # the value "x" after its length
    path.write_bytes(_with_crc(bytes(blob)))
    with pytest.raises(IoFailure, match="UTF-8"):
        read_dataset(path)


def test_payload_length_must_match_the_header(tmp_path):
    path = tmp_path / "n.mdcs"
    write_dataset(path, _dataset())
    body = path.read_bytes()[:-4]
    for blob in (body[:-8], body + bytes(8)):   # one element short, one extra
        path.write_bytes(_with_crc(blob))
        with pytest.raises(IoFailure, match="payload bytes"):
            read_dataset(path)


def _dataset_of_kind(kind):
    data = _dataset()
    data.metadata = dict(signal_to_dataset(_signal()).metadata, kind=kind,
                         pad_factor="1", parseval_norm="54.0")
    return data


@pytest.mark.parametrize("axes", [
    lambda axes: axes[:1],                                  # one axis
    lambda axes: axes + axes[:1],                           # three axes
    lambda axes: (axes[0], ("t", "ps", np.arange(8.0))),    # 8 values, 9 columns
])
def test_axes_must_match_the_matrix(tmp_path, capsys, axes):
    for kind, convert, commands in (
            ("time-domain", dataset_to_signal, ("spectrum", "lineout")),
            ("spectrum", dataset_to_spectrum, ("project",))):
        data = _dataset_of_kind(kind)
        data.axes = axes(_dataset().axes)
        with pytest.raises(IoFailure, match="axes"):
            convert(data)
        path = tmp_path / f"{kind}.mdcs"
        write_dataset(path, data)
        for command in commands:
            _cli_refuses(tmp_path, command, path)


@pytest.mark.parametrize("key,value", [
    ("frame_thz", None), ("waiting_time_ps", "soon"), ("waiting_time_ps", "nan"),
    ("detection_mode", None), ("tau_step_ps", "inf"),
])
def test_signal_metadata_must_be_present_and_finite(key, value):
    data = signal_to_dataset(TimeDomainSignal(
        np.ones((1, 4), np.complex64), Grid(1, 4, 0.25, 0.25, 406.770), 0.5, "pl"))
    if value is None:
        del data.metadata[key]
    else:
        data.metadata[key] = value
    with pytest.raises(IoFailure, match=key):
        dataset_to_signal(data)


def test_overflowing_axis_step_is_refused(tmp_path, capsys):
    data = signal_to_dataset(TimeDomainSignal(
        np.ones((4, 4), np.complex64), Grid(4, 4, 0.25, 0.25, 406.770), 0.5, "pl"))
    data.axes[0][2][:2] = (-1e308, 1e308)
    with pytest.raises(IoFailure, match="overflows"):
        dataset_to_signal(data)
    path = tmp_path / "huge.mdcs"
    write_dataset(path, data)
    _cli_refuses(tmp_path, "spectrum", path)
    assert "overflows" in capsys.readouterr().err


def test_spectrum_metadata_must_be_a_number():
    data = spectrum_to_dataset(to_spectrum(_signal()))
    data.metadata["pad_factor"] = "2.5"
    with pytest.raises(IoFailure, match="pad_factor"):
        dataset_to_spectrum(data)


def _check_read(path):
    """``read_dataset(path)`` raises a package error or returns a valid file."""
    try:
        data = read_dataset(path)
    except SivMdcsError:
        return
    assert data.matrix.ndim == 2 and data.matrix.dtype == np.complex64
    assert np.isfinite(data.matrix).all()


def test_every_cut_and_every_bit_flip_is_refused_or_read(tmp_path, capsys):
    """A 3x5 signal file cut at every byte, and with every bit of its body
    flipped under a recomputed CRC: reading raises only package errors, and
    ``spectrum`` exits 0 or 3 without raising."""
    grid = Grid(3, 5, 0.5, 0.5, 406.770)
    data = np.arange(15, dtype=np.complex64).reshape(3, 5) * (1 - 0.5j)
    source = tmp_path / "source.mdcs"
    write_dataset(source, signal_to_dataset(TimeDomainSignal(data, grid, 0.5, "pl")))
    blob = source.read_bytes()
    path = str(tmp_path / "case.mdcs")
    out = ["--out-dir", str(tmp_path), "--output", "spectrum.mdcs"]
    codes = set()

    def attempt(content):
        with open(path, "wb") as fh:
            fh.write(content)
        _check_read(path)
        codes.add(main(["spectrum", path, *out]))

    for cut in range(len(blob)):
        attempt(blob[:cut])
    body = bytearray(blob[:-4])
    for bit in range(8 * len(body)):
        body[bit // 8] ^= 1 << bit % 8
        attempt(_with_crc(bytes(body)))
        body[bit // 8] ^= 1 << bit % 8
    capsys.readouterr()
    assert codes == {EXIT_OK, EXIT_RUNTIME}


# --- bytes and memory of the file chain -------------------------------------

def _pin_signal(dtype):
    rng = np.random.default_rng(2024)
    data = (rng.normal(size=(12, 10)) + 1j * rng.normal(size=(12, 10))).astype(dtype)
    return TimeDomainSignal(data, Grid(12, 10, 0.5, 0.25, 406.77), 0.5,
                            "heterodyne", {"n_emitters": 7})


# sha256 of these files as the plain five-step transform and an in-memory
# writer made them: the bytes on disk must never move
PINNED_SHA256 = {
    "signal": "616f592f512b88d72e15accbc5e6c23a35111e2ae6b0d8a55b1531daf68bb022",
    ("spectrum", "complex64"):
        "f6d16817e55350ec57b45ff4c16c9b6b04cf3a4150d806f5113b3d40f5cac6ec",
    ("spectrum", "complex128"):
        "dd9a7f2ec59dccd740cae339a00bddf9b0ee38f805c9e546de513600dfab20df",
}


@pytest.mark.parametrize("dtype", ["complex64", "complex128"])
def test_written_bytes_are_pinned(tmp_path, dtype):
    signal = _pin_signal(dtype)
    write_dataset(tmp_path / "s.mdcs", signal_to_dataset(signal))
    write_dataset(tmp_path / "f.mdcs",
                  spectrum_to_dataset(to_spectrum(signal, pad_factor=2)))
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("s.mdcs", "f.mdcs")}
    assert digest["s.mdcs"] == PINNED_SHA256["signal"]
    assert digest["f.mdcs"] == PINNED_SHA256[("spectrum", dtype)]


def test_peak_memory_of_the_file_chain(tmp_path):
    """At most one payload-sized buffer to read, none to write, and only the
    output plus two 1 MiB scratch blocks to transform (512 x 512)."""
    n, slack = 512, 64 * 1024
    payload = 8 * n * n                      # complex64 bytes
    mask = 65_536                            # one block of finiteness flags
    cast = 65_536                            # one block of complex64 casts
    scratch = 2 * 1024 * 1024                # the transform's two blocks
    rng = np.random.default_rng(0)
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    grid = Grid(n, n, 0.5, 0.5, 406.77)
    narrow = TimeDomainSignal(data.astype(np.complex64), grid, 0.5, "pl")
    wide = TimeDomainSignal(data, grid, 0.5, "pl")
    dataset = signal_to_dataset(narrow)
    path = tmp_path / "big.mdcs"

    # write: the block mask is the only allocation beyond the header
    assert peak_bytes(lambda: write_dataset(path, dataset)) <= mask + slack
    # a complex128 source adds one block of its complex64 cast
    assert peak_bytes(lambda: write_dataset(path, signal_to_dataset(wide))) \
        <= mask + cast + slack
    # read: the file's own buffer and the block mask
    assert peak_bytes(lambda: read_dataset(path)) <= payload + mask + slack
    # complex64: the complex64 result and the scratch blocks
    assert peak_bytes(lambda: to_spectrum(narrow)) <= payload + scratch + slack
    # complex128: the complex128 result and the scratch blocks
    assert peak_bytes(lambda: to_spectrum(wide)) <= 2 * payload + scratch + slack


def test_the_spectrum_command_holds_one_payload(tmp_path, capsys):
    """At pad 1 ``spectrum`` transforms in its own read buffer: a second
    1024 x 1024 complex64 payload (8 MiB) would break this bound."""
    n = 1024
    rng = np.random.default_rng(1)
    data = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))).astype(np.complex64)
    path = tmp_path / "signal.mdcs"
    write_dataset(path, signal_to_dataset(
        TimeDomainSignal(data, Grid(n, n, 0.5, 0.5, 406.77), 0.5, "pl")))
    expected = spectrum_to_dataset(to_spectrum(dataset_to_signal(read_dataset(path))))
    del data
    argv = ["spectrum", str(path), "--out-dir", str(tmp_path)]
    assert peak_bytes(lambda: main(argv)) <= path.stat().st_size + 8 * 2**20
    capsys.readouterr()
    assert np.array_equal(read_dataset(tmp_path / "spectrum.mdcs").matrix, expected.matrix)


@pytest.mark.parametrize("source", [
    lambda m: m.astype(np.complex128),
    lambda m: m.astype(">c8"),                           # big-endian
    lambda m: np.asfortranarray(m.astype(np.complex128)),
])
def test_any_complex_source_writes_its_complex64_cast(tmp_path, source):
    # 100 x 200 = 20,000 elements: two full 8,192-element cast blocks and a
    # short last one
    rng = np.random.default_rng(9)
    narrow = (rng.normal(size=(100, 200))
              + 1j * rng.normal(size=(100, 200))).astype(np.complex64)
    axes = (("tau", "ps", np.arange(100.0)), ("t", "ps", np.arange(200.0)))
    write_dataset(tmp_path / "narrow.mdcs", DatasetFile(narrow, axes, {"k": "v"}))
    write_dataset(tmp_path / "wide.mdcs", DatasetFile(source(narrow), axes, {"k": "v"}))
    assert ((tmp_path / "wide.mdcs").read_bytes()
            == (tmp_path / "narrow.mdcs").read_bytes())
    assert read_dataset(tmp_path / "wide.mdcs").matrix.dtype == np.complex64


def test_a_value_that_overflows_complex64_is_never_written(tmp_path):
    # 1e39 is finite in complex128 but infinite once cast to complex64; it
    # sits in the last cast block, so every earlier block passes the check
    data = _dataset()
    data.matrix = np.ones((100, 200), np.complex128)
    data.matrix[-1, -1] = 1e39
    data.axes = ()
    with pytest.raises(IoFailure, match="infinity"):
        write_dataset(tmp_path / "new.mdcs", data)
    assert not (tmp_path / "new.mdcs").exists()
    kept = tmp_path / "kept.mdcs"
    write_dataset(kept, _dataset())
    before = kept.read_bytes()
    with pytest.raises(IoFailure, match="infinity"):
        write_dataset(kept, data)
    assert kept.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.mdcs"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(IoFailure, match="cannot write"):
        write_dataset(tmp_path / "taken", _dataset())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any((tmp_path / "taken").iterdir())
