"""Converters between in-memory objects, dataset files, and CSV traces.

CSV files are RFC-4180 style with a single header row carrying unit
annotations, e.g. ``nu_t (THz),amplitude (arb),valid``.
"""
from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from .dataset import DatasetFile, read_dataset, write_dataset
from .errors import IoFailure
from .response import Grid, TimeDomainSignal
from .spectra import DecayTrace, Spectrum2D, Trace1D


def signal_to_dataset(signal: TimeDomainSignal) -> DatasetFile:
    grid = signal.grid
    meta = {str(k): str(v) for k, v in signal.metadata.items()}
    meta.update({
        "kind": "time-domain",
        "waiting_time_ps": repr(signal.waiting_time_ps),
        "detection_mode": signal.detection_mode,
        "frame_thz": repr(grid.frame_thz),
        "tau_step_ps": repr(grid.tau_step_ps),
        "t_step_ps": repr(grid.t_step_ps),
    })
    axes = (("tau", "ps", grid.tau_ps), ("t", "ps", grid.t_ps))
    return DatasetFile(signal.data, axes, meta)


def _axes(data: DatasetFile, kind: str, keys) -> tuple[np.ndarray, np.ndarray]:
    """The two axes of ``data``, once it is checked to hold a ``kind``
    dataset with metadata ``keys`` and one axis per side of its matrix."""
    if data.metadata.get("kind") != kind:
        raise IoFailure(f"dataset does not hold a {kind} dataset")
    missing = [key for key in keys if key not in data.metadata]
    if missing:
        raise IoFailure(f"{kind} dataset lacks metadata {', '.join(missing)}")
    lengths = tuple(len(values) for _, _, values in data.axes)
    if lengths != np.shape(data.matrix):
        raise IoFailure(f"{kind} dataset has axes of lengths {lengths} for a "
                        f"matrix of shape {np.shape(data.matrix)}")
    (_, _, first), (_, _, second) = data.axes
    return first, second


def _number(metadata, key, parse=float):
    """Metadata value ``key`` as a finite number."""
    try:
        value = parse(metadata[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise IoFailure(f"dataset metadata {key} = {metadata[key]!r} is not a "
                        f"finite number")
    return value


def _axis_step(axis, metadata, key) -> float:
    """Step of a delay axis: its spacing, or for a one-point axis the step
    recorded in the metadata (1.0 ps in files written without it)."""
    if len(axis) > 1:
        step = float(axis[1]) - float(axis[0])
        if not math.isfinite(step):
            raise IoFailure(f"dataset axis step {axis[1]} - {axis[0]} overflows")
        return step
    return _number(metadata, key) if key in metadata else 1.0


def dataset_to_signal(data: DatasetFile) -> TimeDomainSignal:
    tau, t = _axes(data, "time-domain",
                   ("frame_thz", "waiting_time_ps", "detection_mode"))
    meta = data.metadata
    grid = Grid(len(tau), len(t), _axis_step(tau, meta, "tau_step_ps"),
                _axis_step(t, meta, "t_step_ps"), _number(meta, "frame_thz"))
    return TimeDomainSignal(np.asarray(data.matrix), grid,
                            _number(meta, "waiting_time_ps"),
                            meta["detection_mode"], dict(meta))


def spectrum_to_dataset(spectrum: Spectrum2D) -> DatasetFile:
    meta = {str(k): str(v) for k, v in spectrum.metadata.items()}
    meta.update({
        "kind": "spectrum",
        "pad_factor": repr(spectrum.pad_factor),
        "parseval_norm": repr(spectrum.parseval_norm),
    })
    axes = (("nu_tau", "THz", spectrum.nu_tau_thz),
            ("nu_t", "THz", spectrum.nu_t_thz))
    return DatasetFile(spectrum.data, axes, meta)


def dataset_to_spectrum(data: DatasetFile) -> Spectrum2D:
    nu_tau, nu_t = _axes(data, "spectrum", ("pad_factor", "parseval_norm"))
    meta = data.metadata
    return Spectrum2D(np.asarray(data.matrix), nu_tau, nu_t,
                      _number(meta, "pad_factor", int),
                      _number(meta, "parseval_norm"), dict(meta))


def _write_csv(path, header, *columns) -> None:
    """Write ``header``, then one row per position of the equal-length array
    ``columns``, as one string: each cell is the ``str`` of its Python value
    (a float's ``repr``), cells are joined by commas and each row ends in
    CRLF.  These are the bytes of ``csv.writer``'s excel dialect, as no cell
    holds a comma, a quote or a line break.  A non-finite cell is refused
    before the file is opened."""
    arrays = [np.asarray(column) for column in columns]
    for name, array in zip(header, arrays):
        if not np.isfinite(array).all():
            raise IoFailure(f"{path}: column {name!r} holds a NaN or an infinity")
    rows = map(",".join, zip(*(map(str, array.tolist()) for array in arrays)))
    text = "\r\n".join([",".join(header), *rows, ""])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_text(path, newline=None) -> str:
    """The text of the UTF-8 file at ``path``; IoFailure if it is not UTF-8."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise IoFailure(f"{path} is not UTF-8 text") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_csv(path, required: int, optional=()) -> list[np.ndarray]:
    """Float columns of a CSV file with one header row: the first
    ``required`` cells of each row, then one column per default cell in
    ``optional``, which a row may leave out.  Line numbers count rows, as
    ``_write_csv`` puts no line break inside a cell."""
    text = io.StringIO(read_text(path, newline=""), newline="")
    try:
        header, *rows = list(csv.reader(text)) or [[]]   # empty: no header cells
    except csv.Error as exc:                   # a cell past the field size limit
        raise IoFailure(f"{path}: {exc}") from None
    if len(header) < required or _is_number(header[0]):
        raise IoFailure(f"{path}: line 1 is not a header row of at least "
                        f"{required} columns")
    width = required + len(optional)
    if set(map(len, rows)) - {width}:          # a row to pad or to cut
        for lineno, row in enumerate(rows, start=2):
            if len(row) < required:
                raise IoFailure(f"{path}: line {lineno} has {len(row)} cells, "
                                f"expected at least {required}")
            row.extend(optional[len(row) - required:])
            del row[width:]
    try:
        values = np.fromiter(map(float, itertools.chain.from_iterable(rows)),
                             float, len(rows) * width)
        if np.isfinite(values).all():
            return list(values.reshape(len(rows), width).T.copy())
    except ValueError:
        pass
    lineno, cell = next((lineno, cell) for lineno, row in enumerate(rows, start=2)
                        for cell in row
                        if not (_is_number(cell) and math.isfinite(float(cell))))
    raise IoFailure(f"{path}: line {lineno}: {cell!r} is not a finite number")


def write_trace_csv(path, trace: Trace1D) -> None:
    _write_csv(path, ["nu_t (THz)", "amplitude (arb)", "valid"], trace.freqs_thz,
               trace.amplitude, trace.valid.astype(int))


def read_trace_csv(path) -> Trace1D:
    freqs, amps, valid = _read_csv(path, 2, optional=("1",))
    return Trace1D(freqs, amps, valid != 0)


def write_decay_csv(path, trace: DecayTrace) -> None:
    _write_csv(path, ["t_plus_tau (ps)", "amplitude (arb)"], trace.time_ps,
               trace.amplitude)


def read_decay_csv(path) -> DecayTrace:
    return DecayTrace(*_read_csv(path, 2))


def write_tscan_csv(path, scan) -> None:
    # Python's complex abs: numpy's rounds some moduli differently in the last bit
    amps = [complex(amp) for _, amp in scan]
    _write_csv(path, ["T (ps)", "amplitude_real (arb)", "amplitude_imag (arb)",
                      "amplitude_abs (arb)"], [float(T) for T, _ in scan],
               [a.real for a in amps], [a.imag for a in amps], [abs(a) for a in amps])
