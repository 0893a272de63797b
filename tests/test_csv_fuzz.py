"""Property tests of the CSV boundary: whatever bytes a CSV file holds, the
readers return finite, equal-length columns or raise ``IoFailure``, the same
columns or message as the ``csv``-module reference, ``fit-decay`` refuses a
row with a bad cell with exit 3, and finite but extreme rows make it and
``fit-width`` exit 0 or 3.  The writers write the reference's bytes and refuse a non-finite cell."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from sivmdcs.cli import EXIT_OK, EXIT_RUNTIME, main
from sivmdcs.errors import IoFailure
from sivmdcs.io_utils import (_read_csv, _write_csv, read_decay_csv,
                              read_trace_csv, write_decay_csv, write_trace_csv,
                              write_tscan_csv)
from sivmdcs.spectra import DecayTrace, Trace1D

from oracles import csv_module_read, csv_module_write

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


finite_cells = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# a bad cell stays one cell: no quote or comma in it
bad_cells = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999", ""]),
    st.text(st.sampled_from("abe.+- x01"), min_size=1, max_size=6)
    .filter(lambda c: not _finite_number(c)))


@st.composite
def bad_rows(draw, width=2, min_rows=1):
    """Rows of ``width`` finite numbers, one cell of which is replaced by a
    bad cell or, in place of ``None``, cut off with the rest of its row."""
    rows = draw(st.lists(st.lists(finite_cells, min_size=width, max_size=width),
                         min_size=min_rows, max_size=12))
    row = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(0, width - 1))
    cell = draw(st.one_of(bad_cells, st.none()))
    if cell is None:
        del rows[row][column:]
    else:
        rows[row][column] = cell
    return "".join(",".join(r) + "\n" for r in rows)


clean_rows = st.lists(st.lists(finite_cells, min_size=2, max_size=3).map(",".join),
                      max_size=12).map(lambda rows: "".join(r + "\n" for r in rows))
csv_bytes = st.one_of(
    st.tuples(st.sampled_from(["nu_t (THz),amplitude (arb),valid",
                               "t_plus_tau (ps),amplitude (arb)", "x", "1.0,2.0", ""]),
              st.one_of(clean_rows, bad_rows(2), bad_rows(3)))
    .map(lambda parts: (parts[0] + "\n" + parts[1]).encode()),
    st.binary(max_size=60))


@seed(20201)
@FUZZ
@given(data=csv_bytes)
def test_csv_readers_return_finite_columns_or_raise_io_failure(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    for read in (read_trace_csv, read_decay_csv):
        try:
            columns = list(vars(read(path)).values())
        except IoFailure:
            continue
        assert len({len(column) for column in columns}) == 1
        assert all(np.isfinite(column).all() for column in columns)


@seed(20201)
@FUZZ
@given(rows=bad_rows(2, min_rows=8))
def test_fit_decay_refuses_a_bad_cell_with_exit_3(tmp_path, capsys, rows):
    path = tmp_path / "decay.csv"
    path.write_text("t_plus_tau (ps),amplitude (arb)\n" + rows)
    assert main(["fit-decay", str(path)]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


@seed(20201)
@FUZZ
@given(data=csv_bytes)
def test_csv_reader_matches_the_csv_module_reference(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    for required, optional in ((2, ("1",)), (2, ())):
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(IoFailure, match="is not UTF-8 text"):
                _read_csv(path, required, optional)
            continue
        try:
            expected = csv_module_read(path, required, optional)
        except ValueError as exc:
            with pytest.raises(IoFailure) as raised:
                _read_csv(path, required, optional)
            assert str(raised.value) == str(exc)
            continue
        got = _read_csv(path, required, optional)
        assert len(got) == len(expected)
        for column, reference in zip(got, expected):
            assert column.dtype == reference.dtype and column.flags.c_contiguous
            assert column.tobytes() == reference.tobytes()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
int64s = st.integers(-2**63, 2**63 - 1)


def _same_bytes(tmp_path, write, reference):
    """``write`` and ``reference`` each write a file, with equal bytes."""
    write(tmp_path / "fast.csv")
    reference(tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "reference.csv").read_bytes()


@seed(20201)
@FUZZ
@given(rows=st.lists(st.tuples(finite_floats, finite_floats, st.booleans()), max_size=20))
def test_trace_and_decay_writers_write_the_csv_module_bytes(tmp_path, rows):
    freqs, amps, valid = (np.array(column).reshape(len(rows))
                          for column in (zip(*rows) if rows else ((),) * 3))
    trace_header = ["nu_t (THz)", "amplitude (arb)", "valid"]
    _same_bytes(tmp_path, lambda path: write_trace_csv(path, Trace1D(freqs, amps, valid)),
                lambda path: csv_module_write(path, trace_header, freqs, amps,
                                              valid.astype(int)))
    decay_header = ["t_plus_tau (ps)", "amplitude (arb)"]
    _same_bytes(tmp_path, lambda path: write_decay_csv(path, DecayTrace(freqs, amps)),
                lambda path: csv_module_write(path, decay_header, freqs, amps))


@seed(20201)
@FUZZ
@given(scan=st.lists(st.tuples(finite_floats.filter(lambda v: abs(v) < 1e300),
                               st.complex_numbers(max_magnitude=1e300,
                                                  allow_nan=False,
                                                  allow_infinity=False)),
                     max_size=20))
def test_tscan_writer_writes_the_csv_module_bytes(tmp_path, scan):
    header = ["T (ps)", "amplitude_real (arb)", "amplitude_imag (arb)",
              "amplitude_abs (arb)"]
    amps = [complex(amp) for _, amp in scan]
    _same_bytes(tmp_path, lambda path: write_tscan_csv(path, scan),
                lambda path: csv_module_write(
                    path, header, [float(T) for T, _ in scan], [a.real for a in amps],
                    [a.imag for a in amps], [abs(a) for a in amps]))


@seed(20201)
@FUZZ
@given(columns=st.lists(st.one_of(st.lists(finite_floats, min_size=5, max_size=5),
                                  st.lists(int64s, min_size=5, max_size=5)),
                        min_size=1, max_size=4))
def test_writer_writes_the_csv_module_bytes_for_floats_and_ints(tmp_path, columns):
    arrays = [np.array(column) for column in columns]
    header = [f"c{k} (arb)" for k in range(len(columns))]
    _same_bytes(tmp_path, lambda path: _write_csv(path, header, *arrays),
                lambda path: csv_module_write(path, header, *arrays))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_writer_refuses_a_non_finite_cell_before_opening_the_file(tmp_path, bad, column):
    columns = [np.arange(4.0), np.ones(4)]
    columns[column][2] = bad
    path = tmp_path / "out.csv"
    with pytest.raises(IoFailure, match="holds a NaN or an infinity"):
        _write_csv(path, ["a (arb)", "b (arb)"], *columns)
    assert not path.exists()


extreme_rows = st.lists(
    st.tuples(*[st.floats(-1e300, 1e300, allow_nan=False)] * 2)
    .map(lambda row: ",".join(map(repr, row))),
    min_size=8, max_size=16).map(lambda rows: "".join(r + "\n" for r in rows))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20201)
@FUZZ
@given(rows=extreme_rows)
def test_fit_decay_on_finite_extreme_rows_keeps_the_exit_contract(tmp_path, capfd, rows):
    # finite cells up to 1e300 overflow the fit's arithmetic (numpy warns);
    # the fit may then fail, but only with exit 3, and no LAPACK routine
    # sees a non-finite input and complains on the process's stdout
    path = tmp_path / "decay.csv"
    path.write_text("t_plus_tau (ps),amplitude (arb)\n" + rows)
    assert main(["fit-decay", str(path), "--components", "2"]) in (EXIT_OK, EXIT_RUNTIME)
    assert "On entry to" not in capfd.readouterr().out


# ascending distinct frequencies, so that the width fits run past their checks
increasing_rows = st.lists(
    st.tuples(*[st.floats(-1e300, 1e300, allow_nan=False)] * 2),
    min_size=8, max_size=16, unique_by=lambda row: row[0]
).map(lambda rows: "".join(",".join(map(repr, row)) + "\n" for row in sorted(rows)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", ["interpolated", "gaussian", "lorentzian", "lineshape"])
@seed(20202)
@FUZZ
@given(rows=st.one_of(extreme_rows, increasing_rows))
def test_fit_width_on_finite_extreme_rows_keeps_the_exit_contract(tmp_path, capfd, model, rows):
    # a trace with no positive amplitude or with frequencies out of order
    # is refused with exit 3, and an overflowing fit fails with exit 3
    path = tmp_path / "trace.csv"
    path.write_text("nu_t (THz),amplitude (arb)\n" + rows)
    assert main(["fit-width", str(path), "--model", model]) in (EXIT_OK, EXIT_RUNTIME)
    assert "On entry to" not in capfd.readouterr().out
