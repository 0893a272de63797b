"""The benchmark's three workloads.

Each workload does its set-up in ``__init__``, runs one timed item in
``run_item`` (calls into the program and nothing else) and checks that
item's outputs in ``check``, outside the timed region.  The program is
driven only through its public entry points, and the sampled ensemble is
handed on untouched from ``build_ensemble`` to the synthesis calls.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from sivmdcs import parse_config, synthesize_signal, waiting_time_scan
from sivmdcs.cli import main
from sivmdcs.reproduce import build_ensemble, run_reproduction

from . import closed_form, mdcs_file


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# --- figures -----------------------------------------------------------------

class Figures:
    """One pass of the paper's reproduction targets, each with its default
    configuration and seed.  fig2 is left out: it alone takes about 50 s and
    its hidden branch runs the same two-level heterodyne kernel as fig1d and
    fig3.  The inputs are the paper's targets, so ``seed`` is not used."""

    name = "figures"
    TARGETS = ("fig1c", "fig1d", "fig3", "fig4", "t1scan")
    # checks each report carries today; a report may gain checks, not lose them
    MIN_CHECKS = {"fig1c": 9, "fig1d": 3, "fig3": 3, "fig4": 5, "t1scan": 1}
    items_per_round = len(TARGETS)
    required_layers = ("reproduce", "config.parse", "emitter.sample",
                       "response.synthesize", "response.tscan",
                       "spectra.transform", "spectra.traces", "fitting.fit",
                       "dataset.write", "io_utils.csv_write")

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir

    def run_item(self, k: int):
        target = self.TARGETS[k % len(self.TARGETS)]
        return target, run_reproduction(target, out_dir=os.path.join(self.out_dir, target),
                                        threads=1)

    def check(self, k: int, outputs) -> Tally:
        target, report = outputs
        tally = Tally(attempted=1)
        failing = [c.line() for c in report.checks if not c.passed]
        tally.expect(report.passed, f"{target}: report failed: {'; '.join(failing)}")
        tally.expect(len(report.checks) >= self.MIN_CHECKS[target],
                     f"{target}: {len(report.checks)} checks, expected at least "
                     f"{self.MIN_CHECKS[target]}")
        path = os.path.join(self.out_dir, target, f"{target}_report.txt")
        with open(path) as fh:
            status = fh.read().rstrip().splitlines()[-1]
        tally.expect(status == "status = pass", f"{target}: report file says {status!r}")
        return tally


# --- sweep -------------------------------------------------------------------

SWEEP_EMITTERS = 20000
SWEEP_MODEL = closed_form.Model(
    center_thz=406.814, ground_splitting_ghz=59.0, excited_splitting_ghz=261.0,
    laser_center_thz=406.770, laser_fwhm_thz=4.14,
    yield_crossover=0.02, yield_steepness=4.0, waiting_time_ps=0.5,
    components=(closed_form.Component(0.3, 0.028, False, 1700.0),
                closed_form.Component(0.7, 1.84, True, 1700.0)))
# Steps of 0.05 and 0.04 ps put Nyquist at 10 and 12.5 THz, over twelve
# strain sigmas of the 1.84 THz component, so no seed raises GridTooCoarse.
# Unequal steps and log-normal T2 keep the sweep off any echo fast path.
SWEEP_CONFIG = """
[scheme]
center = {m.center_thz!r} thz
ground_splitting = {m.ground_splitting_ghz!r} ghz
excited_splitting = {m.excited_splitting_ghz!r} ghz

[strain]
yield_crossover = {m.yield_crossover!r}
yield_steepness = {m.yield_steepness!r}

[laser]
center = {m.laser_center_thz!r} thz
fwhm = {m.laser_fwhm_thz!r} thz

[grid]
tau_points = 6
t_points = 5
tau_step = 0.05 ps
t_step = 0.04 ps

[simulation]
waiting_time = {m.waiting_time_ps!r} ps
mode = heterodyne
noise = 0.0
seed = {{seed}}
ensemble_size = {n}

[component.bright]
weight = {b.weight!r}
strain_shape = gaussian
strain_fwhm = {b.strain_fwhm_thz!r}
t2 = 122 ps
t1 = {b.t1_ps!r} ps
yield = strain

[component.hidden]
weight = {h.weight!r}
strain_shape = gaussian
strain_fwhm = {h.strain_fwhm_thz!r}
t2 = lognormal 20 ps 0.5
t1 = {h.t1_ps!r} ps
yield = strain
two_level = true
""".format(m=SWEEP_MODEL, b=SWEEP_MODEL.components[0],
           h=SWEEP_MODEL.components[1], n=SWEEP_EMITTERS)
SWEEP_SHAPE = (6, 5)
SWEEP_WAITS_PS = np.arange(0.0, 4000.1, 250.0)     # 17 waiting times
SWEEP_T1_PS = 1700.0
# tolerance in standard errors of the N-emitter mean; 5 sigma makes a
# false alarm about 1 in 2 million items
SWEEP_SIGMAS = 5.0


class Sweep:
    """A Monte Carlo seed sweep over a large mixed ensemble on a tiny grid:
    per-emitter Python work dominates and the synthesis kernel does almost
    nothing."""

    name = "sweep"
    items_per_round = 4
    required_layers = ("config.parse", "emitter.sample", "response.synthesize",
                       "response.tscan")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        n = SWEEP_EMITTERS
        self.het = closed_form.ensemble_mean_and_error(
            SWEEP_MODEL, closed_form.heterodyne_moments, n)
        self.pl = closed_form.ensemble_mean_and_error(
            SWEEP_MODEL, lambda m, c: closed_form.amplitude_moments(m, c, pl=True), n)

    def item_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def run_item(self, k: int):
        cfg = parse_config(SWEEP_CONFIG.format(seed=self.item_seed(k)))
        ensemble = build_ensemble(cfg)
        het = synthesize_signal(ensemble, cfg.grid, cfg.waiting_time_ps,
                                "heterodyne", cfg.laser, threads=1)
        pl = synthesize_signal(ensemble, cfg.grid, cfg.waiting_time_ps,
                               "pl", cfg.laser, threads=1)
        scan = waiting_time_scan(ensemble, 1.0, 1.0, SWEEP_WAITS_PS, "heterodyne",
                                 cfg.laser, cfg.grid.frame_thz)
        return het.data, pl.data, scan

    def check(self, k: int, outputs) -> Tally:
        het, pl, scan = outputs
        tally = Tally(attempted=5)
        where = f"sweep seed {self.item_seed(k)}"
        for label, data, (mean, err) in (("heterodyne", het, self.het),
                                         ("pl", pl, self.pl)):
            if data.shape != SWEEP_SHAPE or not np.all(np.isfinite(data)):
                tally.problems.append(f"{where}: {label} signal has shape "
                                      f"{data.shape} or non-finite values")
                continue
            value = data[0, 0] / SWEEP_EMITTERS
            tally.expect(abs(value.real - mean) <= SWEEP_SIGMAS * err
                         and abs(value.imag) <= 1e-9 * abs(value),
                         f"{where}: {label} S(0,0)/N = {value:.6g}, closed form "
                         f"{mean:.6g} +- {err:.3g}")
        check_t1_scan(tally, where, scan, SWEEP_WAITS_PS, SWEEP_T1_PS)
        return tally


def check_t1_scan(tally: Tally, where: str, scan, waits_ps, t1_ps: float) -> None:
    """A uniform-T1 scan must satisfy |A(T)/A(0)| = exp(-T/T1)."""
    times = np.array([T for T, _ in scan])
    amps = np.abs([a for _, a in scan])
    if times.shape != np.shape(waits_ps) or not np.array_equal(times, waits_ps) \
            or not amps[0] > 0:
        tally.problems.append(f"{where}: scan times {times} or A(0) = {amps[:1]} wrong")
        return
    dev = np.max(np.abs(amps / amps[0] / np.exp(-times / t1_ps) - 1.0))
    tally.expect(dev <= 1e-9, f"{where}: |A(T)/A(0)| departs from "
                              f"exp(-T/T1) by {dev:.3g}")


# --- analysis ----------------------------------------------------------------

ANALYSIS_POINTS = 1024
ANALYSIS_STEP_PS = 1.0
ANALYSIS_T2_CLASSES = ((120.0, 0.7), (990.0, 0.3))   # fig4 heterodyne branch
ANALYSIS_FWHM_THZ = 0.2
ANALYSIS_T1_PS = 1700.0
ANALYSIS_WAIT_PS = 0.5
ANALYSIS_NOISE_RMS = 0.004
LASER_CENTER_THZ = 406.770
LASER_FWHM_THZ = 4.14
DECONVOLVE_FLOOR = 0.05           # the CLI's default
T2_TOLERANCE = (0.03, 0.05)       # relative, for T2a and T2b
# deconvolve and fit-width read only the laser from the configuration
ANALYSIS_CONFIG = f"""
[laser]
center = {LASER_CENTER_THZ!r} thz
fwhm = {LASER_FWHM_THZ!r} thz

[component.main]
"""
NAN_CONFIG = """
[grid]
tau_points = 4
t_points = 4

[simulation]
ensemble_size = 4

[component.broken]
t2 = nan ps
"""


class Analysis:
    """The file-based chain through ``sivmdcs.cli.main``, in process, on a
    closed-form signal written once in set-up, plus five malformed-input
    probes per pass.  A probe succeeds only when ``main`` returns 3 without
    raising."""

    name = "analysis"
    items_per_round = 16
    required_layers = ("cli", "config.parse", "spectra.transform",
                       "spectra.traces", "fitting.fit", "dataset.write",
                       "dataset.read", "io_utils.csv_write", "io_utils.csv_read",
                       "pulsetrain.demod")
    CHAIN = 7

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.nu0_thz = float(rng.uniform(-0.1, 0.1))
        self.amplitude = float(rng.uniform(0.5, 2.0))
        signal = closed_form.echo_signal(
            ANALYSIS_POINTS, ANALYSIS_STEP_PS, self.nu0_thz, ANALYSIS_FWHM_THZ,
            ANALYSIS_T2_CLASSES, ANALYSIS_T1_PS, ANALYSIS_WAIT_PS,
            ANALYSIS_NOISE_RMS, rng)
        self.signal = signal.astype(np.complex64)
        wide = self.signal.astype(np.complex128)
        self.power = self.signal.size * np.sum(np.abs(wide) ** 2)   # Parseval
        self.diagonal = np.abs(np.diagonal(wide))
        self.out_dir = out_dir
        path = self._path
        axis = np.arange(ANALYSIS_POINTS) * ANALYSIS_STEP_PS
        mdcs_file.write(path("signal.mdcs"), self.signal,
                        (("tau", "ps", axis), ("t", "ps", axis)),
                        {"kind": "time-domain", "detection_mode": "heterodyne",
                         "waiting_time_ps": repr(ANALYSIS_WAIT_PS),
                         "frame_thz": repr(LASER_CENTER_THZ)})
        files = {
            "exp.cfg": ANALYSIS_CONFIG,
            "nan.cfg": NAN_CONFIG,
            "bad_amplitude.csv": "nu_t (THz),amplitude (arb),valid\n406.7,abc,1\n",
            "empty.csv": "",
            "short_decay.csv": "t_plus_tau (ps),amplitude (arb)\n0.0,1.0\n2.0,0.9\n",
        }
        for name, text in files.items():
            with open(path(name), "w") as fh:
                fh.write(text)
        out, cfg = ["--out-dir", out_dir], ["--config", path("exp.cfg")]
        self.chain = [
            ["spectrum", path("signal.mdcs"), *out, "--output", "spectrum.mdcs"],
            ["project", path("spectrum.mdcs"), *out, "--output", "projection.csv"],
            ["deconvolve", path("projection.csv"), *cfg, *out,
             "--output", "deconvolved.csv"],
            ["lineout", path("signal.mdcs"), *out, "--output", "diagonal.csv"],
            ["fit-decay", path("diagonal.csv"), "--components", "2"],
            ["fit-width", path("projection.csv"), *cfg, "--model", "lineshape"],
            ["demod", "--amplitude", repr(self.amplitude)],
        ]
        self.probes = [
            ["fit-width", path("bad_amplitude.csv"), *cfg, "--model", "lineshape"],
            ["fit-width", path("empty.csv"), *cfg, "--model", "lineshape"],
            ["fit-decay", path("short_decay.csv")],
            ["demod", "--bandwidth", "0"],
            ["simulate", "--config", path("nan.cfg"), *out, "--output", "nan.mdcs"],
        ]

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def run_item(self, k: int):
        results = []
        for argv in self.chain + self.probes:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:        # a probe's raise is its failure
                code = exc
            results.append((code, out.getvalue()))
        return results

    def check(self, k: int, outputs) -> Tally:
        tally = Tally(attempted=len(outputs))
        for argv, (code, _) in zip(self.chain, outputs):
            if code != 0:
                tally.failed += 1
                tally.problems.append(f"analysis: {argv[0]} returned {code!r}")
        tally.failed += sum(code != 3 for code, _ in outputs[self.CHAIN:])
        if tally.problems:
            return tally
        stdout = {argv[0]: text for argv, (_, text) in zip(self.chain, outputs)}
        self.check_decay_fit(tally, stdout["fit-decay"])
        width = re.search(r"^fwhm_thz = (\S+)", stdout["fit-width"], re.M)
        tally.expect(width is not None and 0.0 < float(width.group(1)) < math.inf,
                     "analysis: fit-width printed no finite positive FWHM")
        self.check_demod(tally, stdout["demod"])
        self.check_files(tally)
        return tally

    def check_decay_fit(self, tally: Tally, text: str) -> None:
        values = dict(re.findall(r"^(T2[ab]_ps) = (\S+)", text, re.M))
        for name, (t2, _), tol in zip(("T2a_ps", "T2b_ps"), ANALYSIS_T2_CLASSES,
                                      T2_TOLERANCE):
            got = float(values.get(name, "nan"))
            tally.expect(abs(got / t2 - 1.0) <= tol,
                         f"analysis: fit-decay {name} = {got}, generated {t2} "
                         f"(tolerance {tol:.0%})")

    def check_demod(self, tally: Tally, text: str) -> None:
        match = re.search(r"\(\|\.\| = (\S+)\)", text)
        got = float(match.group(1)) if match else math.nan
        tally.expect(abs(got / self.amplitude - 1.0) <= 0.01,
                     f"analysis: demod |amplitude| = {got}, injected {self.amplitude}")

    def check_files(self, tally: Tally) -> None:
        spectrum, axes, _ = mdcs_file.read(self._path("spectrum.mdcs"))
        magnitude = np.abs(spectrum).astype(np.float64)
        ratio = np.sum(magnitude ** 2) / self.power
        tally.expect(abs(ratio - 1.0) <= 1e-6,
                     f"analysis: Parseval sum|F|^2 / (N sum|S|^2) = {ratio!r}")

        freqs, proj, _ = read_csv_columns(self._path("projection.csv"))
        column_sums = magnitude.sum(axis=0)
        tally.expect(np.array_equal(freqs, axes[1][2])
                     and np.max(np.abs(proj - column_sums)) <= 1e-5 * column_sums.max(),
                     "analysis: projection.csv is not the column sum of |F|")

        freqs_d, deconv, valid = read_csv_columns(self._path("deconvolved.csv"))
        sigma_l = LASER_FWHM_THZ / closed_form.FWHM_PER_SIGMA
        laser_sq = np.exp(-((freqs_d - LASER_CENTER_THZ) / sigma_l) ** 2)
        floor = DECONVOLVE_FLOOR * laser_sq.max()
        tally.expect(np.array_equal(freqs_d, freqs)
                     and np.allclose(deconv, proj / np.maximum(laser_sq, floor),
                                     rtol=1e-12, atol=0.0)
                     and np.array_equal(valid, laser_sq >= floor),
                     "analysis: deconvolved.csv is not projection / laser^2")

        x, diag, _ = read_csv_columns(self._path("diagonal.csv"))
        k = np.arange(ANALYSIS_POINTS)
        tally.expect(np.array_equal(x, 2.0 * k * ANALYSIS_STEP_PS)
                     and np.allclose(diag, self.diagonal, rtol=1e-6, atol=0.0),
                     "analysis: diagonal.csv is not |S| along tau = t")


def read_csv_columns(path):
    """Columns of a one-header CSV as float arrays (a missing third column
    reads as all ones)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cols = np.array([[float(v) for v in row] + [1.0] * (3 - len(row)) for row in rows])
    return cols[:, 0], cols[:, 1], cols[:, 2].astype(bool)


WORKLOADS = {cls.name: cls for cls in (Figures, Sweep, Analysis)}
