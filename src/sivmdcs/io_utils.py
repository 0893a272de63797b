"""Converters between in-memory objects, dataset files, and CSV traces.

CSV files are RFC-4180 style with a single header row carrying unit
annotations, e.g. ``nu_t (THz),amplitude (arb),valid``.
"""
from __future__ import annotations

import csv

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
    return DatasetFile(signal.data.astype(np.complex64), axes, meta)


def _axis_step(axis, metadata, key) -> float:
    """Step of a delay axis: its spacing, or for a one-point axis the step
    recorded in the metadata (1.0 ps in files written without it)."""
    if len(axis) > 1:
        return float(axis[1] - axis[0])
    return float(metadata.get(key, 1.0))


def dataset_to_signal(data: DatasetFile) -> TimeDomainSignal:
    if data.metadata.get("kind") != "time-domain":
        raise IoFailure("dataset does not hold a time-domain signal")
    (_, _, tau), (_, _, t) = data.axes
    grid = Grid(len(tau), len(t), _axis_step(tau, data.metadata, "tau_step_ps"),
                _axis_step(t, data.metadata, "t_step_ps"),
                float(data.metadata["frame_thz"]))
    return TimeDomainSignal(np.asarray(data.matrix), grid,
                            float(data.metadata["waiting_time_ps"]),
                            data.metadata["detection_mode"],
                            dict(data.metadata))


def spectrum_to_dataset(spectrum: Spectrum2D) -> DatasetFile:
    meta = {str(k): str(v) for k, v in spectrum.metadata.items()}
    meta.update({
        "kind": "spectrum",
        "pad_factor": repr(spectrum.pad_factor),
        "parseval_norm": repr(spectrum.parseval_norm),
    })
    axes = (("nu_tau", "THz", spectrum.nu_tau_thz),
            ("nu_t", "THz", spectrum.nu_t_thz))
    return DatasetFile(spectrum.data.astype(np.complex64), axes, meta)


def dataset_to_spectrum(data: DatasetFile) -> Spectrum2D:
    if data.metadata.get("kind") != "spectrum":
        raise IoFailure("dataset does not hold a 2D spectrum")
    (_, _, nu_tau), (_, _, nu_t) = data.axes
    return Spectrum2D(np.asarray(data.matrix), nu_tau, nu_t,
                      int(data.metadata["pad_factor"]),
                      float(data.metadata["parseval_norm"]),
                      dict(data.metadata))


def write_trace_csv(path, trace: Trace1D) -> None:
    valid = trace.valid_mask()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu_t (THz)", "amplitude (arb)", "valid"])
        for f, a, v in zip(trace.freqs_thz, trace.amplitude, valid):
            writer.writerow([repr(float(f)), repr(float(a)), int(v)])


def read_trace_csv(path, provenance: str = "projection") -> Trace1D:
    freqs, amps, valid = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 2:
            raise IoFailure(f"{path}: not a trace CSV")
        for row in reader:
            freqs.append(float(row[0]))
            amps.append(float(row[1]))
            valid.append(bool(int(row[2])) if len(row) > 2 else True)
    return Trace1D(np.array(freqs), np.array(amps), provenance,
                   np.array(valid, dtype=bool))


def write_decay_csv(path, trace: DecayTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_plus_tau (ps)", "amplitude (arb)"])
        for x, a in zip(trace.time_ps, trace.amplitude):
            writer.writerow([repr(float(x)), repr(float(a))])


def read_decay_csv(path) -> DecayTrace:
    xs, amps = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            xs.append(float(row[0]))
            amps.append(float(row[1]))
    return DecayTrace(np.array(xs), np.array(amps))


def write_tscan_csv(path, scan) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T (ps)", "amplitude_real (arb)",
                         "amplitude_imag (arb)", "amplitude_abs (arb)"])
        for T, amp in scan:
            writer.writerow([repr(float(T)), repr(amp.real), repr(amp.imag),
                             repr(abs(amp))])
