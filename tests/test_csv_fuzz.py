"""Property tests of the CSV boundary: whatever a CSV file holds, the readers
return finite, equal-length columns or raise ``IoFailure``, ``fit-decay``
refuses a row with a bad cell with exit 3, and finite but extreme rows make
it exit 0 or 3."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from sivmdcs.cli import EXIT_OK, EXIT_RUNTIME, main
from sivmdcs.errors import IoFailure
from sivmdcs.io_utils import read_decay_csv, read_trace_csv

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
csv_texts = st.one_of(
    st.tuples(st.sampled_from(["nu_t (THz),amplitude (arb),valid",
                               "t_plus_tau (ps),amplitude (arb)", "x", "1.0,2.0", ""]),
              st.one_of(clean_rows, bad_rows(2), bad_rows(3)))
    .map(lambda parts: parts[0] + "\n" + parts[1]),
    st.text(st.characters(codec="utf-8"), max_size=60))


@seed(20201)
@FUZZ
@given(text=csv_texts)
def test_csv_readers_return_finite_columns_or_raise_io_failure(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
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
