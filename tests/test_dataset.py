import numpy as np
import pytest

from sivmdcs.dataset import (FORMAT_VERSION, DatasetFile, read_dataset,
                             write_dataset)
from sivmdcs.errors import ChecksumMismatch, IoFailure, VersionUnsupported
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
    assert np.array_equal(again.valid_mask(), trace.valid)


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
    assert np.array_equal(again.valid_mask(), [True, False])


TRACE_HEADER = "nu_t (THz),amplitude (arb),valid\n"


@pytest.mark.parametrize("text,where", [
    ("", "line 1"),                                      # no header row
    ("406.7,1.0,1\n406.8,0.5,1\n", "line 1"),            # data where the header goes
    (TRACE_HEADER + "406.7,abc,1\n", "line 2"),          # non-numeric cell
    (TRACE_HEADER + "406.7,1.0,1\n406.8\n", "line 3"),   # short row
    (TRACE_HEADER + "406.7,1.0,1\n\n", "line 3"),        # blank row
    (TRACE_HEADER + "406.7,1.0,yes\n", "line 2"),        # non-numeric valid flag
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
