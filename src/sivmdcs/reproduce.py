"""One-command reproduction targets chaining simulate -> transform -> analyze.

Each target carries a default configuration, runs the full pipeline, writes
its datasets and CSV traces, and reports extracted quantities next to the
reference values with a pass/fail flag per tolerance.  All randomness is
seeded, so a fixed config reproduces every artifact bit-exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, parse_config
from .emitter import sample_ensemble
from .errors import InvalidSpec
from .fitting import (fit_exponential, fit_finite_bandwidth, fwhm,
                      lorentzian_width_from_t2)
from .io_utils import (signal_to_dataset, write_dataset, write_decay_csv,
                       write_trace_csv, write_tscan_csv)
from .blocks import row_blocks
from .response import (TimeDomainSignal, add_noise, signal_rows,
                       synthesize_diagonal, synthesize_signal, waiting_time_scan)
from .spectra import (deconvolve_laser, diagonal_decay, interpolated_fwhm,
                      project_nu_t, to_spectrum)

TARGETS = ("fig1c", "fig1d", "fig2", "fig3", "fig4", "t1scan")


@dataclass
class Check:
    name: str
    value: float
    reference: str
    passed: bool

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"check {self.name} = {self.value:.6g} ({self.reference}) -> {flag}"


@dataclass
class Report:
    target: str
    cfg: ExperimentConfig
    out_dir: str = "."
    checks: list[Check] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    def path(self, name: str) -> str:
        """Record ``name`` as an artifact and return its path in ``out_dir``."""
        self.artifacts.append(name)
        return os.path.join(self.out_dir, name)

    def add(self, name, value, reference, passed):
        self.checks.append(Check(name, float(value), reference, bool(passed)))

    def add_interval(self, name, value, lo, hi):
        self.add(name, value, f"expected in [{lo:.6g}, {hi:.6g}]", lo <= value <= hi)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"target = {self.target}",
                 f"tool_version = {__version__}",
                 f"config_sha256 = {config_hash(self.cfg)}",
                 f"seed = {self.cfg.seed}"]
        lines += [c.line() for c in self.checks]
        lines += [f"artifact = {a}" for a in self.artifacts]
        lines.append(f"status = {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# --- default configurations -------------------------------------------------

def _grid(n_tau: int, n_t: int, step: str) -> str:
    """A [grid] section with equal steps."""
    return (f"\n[grid]\ntau_points = {n_tau}\nt_points = {n_t}\n"
            f"tau_step = {step}\nt_step = {step}\n")


_BASE = """
[laser]
center = 406.770 thz
fwhm = 4.14 thz

[tags]
nu1 = 80.000 mhz
nu2 = 80.107 mhz
nu3 = 80.214 mhz
nu4 = 80.300 mhz
"""

DEFAULT_CONFIGS = {
    "fig1c": _BASE + _grid(1024, 1024, "1.171875 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = pl
noise = 0.0
seed = 7
ensemble_size = 2000

[component.bright]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
t1 = 1.7 ns
yield = strain
""",
    "fig1d": _BASE + """
[strain]
yield_crossover = 0.02
yield_steepness = 4.0
""" + _grid(1024, 1024, "0.1 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = heterodyne
noise = 0.0
seed = 7
ensemble_size = 1500

[component.bright]
weight = 0.005
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
t1 = 1.7 ns
yield = strain

[component.hidden]
weight = 0.995
strain_shape = gaussian
strain_fwhm = 1.84
t2 = 5 ps
t1 = 1.7 ns
yield = strain
two_level = true
""",
    "fig2": _BASE + _grid(512, 512, "1.171875 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = pl
noise = 0.0
seed = 7
ensemble_size = 2000

[component.bright]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
t1 = 1.7 ns
yield = strain
""",
    "fig3": _BASE + """
[strain]
yield_crossover = 0.02
yield_steepness = 4.0
""" + _grid(1024, 1024, "0.1 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = heterodyne
noise = 0.0
seed = 13
ensemble_size = 6000

[component.bright]
weight = 0.005
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 20 ps
t1 = 1.7 ns
yield = strain
two_level = true

[component.hidden]
weight = 0.995
strain_shape = gaussian
strain_fwhm = 1.84
t2 = 20 ps
t1 = 1.7 ns
yield = strain
two_level = true
""",
    "fig4": _BASE + _grid(1024, 1024, "1.0 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = pl
noise = 3.0
seed = 7
ensemble_size = 1500

[component.bright]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
t1 = 1.7 ns
yield = strain
two_level = true
""",
    "t1scan": _BASE + _grid(16, 16, "1.0 ps") + """
[simulation]
waiting_time = 0.0 ps
mode = heterodyne
noise = 0.0
seed = 7
ensemble_size = 50

[component.uniform]
weight = 1.0
strain_shape = delta
strain_fwhm = 0.0
t2 = 122 ps
t1 = 1.7 ns
yield = strain
two_level = true
""",
}

# Secondary config for the fig2 hidden-population measurement: a broad
# two-level ensemble observed in heterodyne detection on a fine grid.
FIG2_HIDDEN_CONFIG = _BASE + _grid(256, 8192, "0.125 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = heterodyne
noise = 0.0
seed = 11
ensemble_size = 32000

[component.hidden]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 1.84
t2 = 990 ps
t1 = 1.7 ns
yield = strain
two_level = true
"""

# Heterodyne branch of the fig4 dephasing comparison.  The inhomogeneous
# width is kept modest so a 1 ps step grid resolves every detuning; the
# diagonal decay is independent of that width (photon-echo property).
FIG4_HET_CONFIG = _BASE + _grid(1024, 1024, "1.0 ps") + """
[simulation]
waiting_time = 0.5 ps
mode = heterodyne
noise = 1.0
seed = 11
ensemble_size = 1500

[component.hidden]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.2
t2 = 120 ps : 0.7, 990 ps : 0.3
t1 = 1.7 ns
yield = strain
two_level = true
"""


def _shift_seed(cfg: ExperimentConfig, shift: int) -> ExperimentConfig:
    """``cfg`` with its seed moved by ``shift``.  A seed override moves the
    seed of every branch of a target by the same amount, so the branches
    keep distinct seeds and noise streams, and an override equal to the
    configured seed changes nothing."""
    return replace(cfg, seed=cfg.seed + shift)


def build_ensemble(cfg: ExperimentConfig):
    return sample_ensemble(cfg.ensemble, cfg.scheme, cfg.strain,
                           cfg.ensemble_size, cfg.seed)


def run_simulation(cfg: ExperimentConfig, mode: str | None = None):
    """The complex64 signal of ``cfg``, the precision its dataset stores."""
    ensemble = build_ensemble(cfg)
    return synthesize_signal(ensemble, cfg.grid, cfg.waiting_time_ps,
                             mode or cfg.mode, cfg.laser, noise_rms=cfg.noise,
                             noise_seed=cfg.seed + 1)


def _box(spectrum, nu_tau_center, nu_t_center, half_width):
    """(centroid_nu_tau, centroid_nu_t, max |F|) in a square box; a box of
    zeros has its centroid at its center."""
    rows = np.abs(spectrum.nu_tau_thz - nu_tau_center) <= half_width
    cols = np.abs(spectrum.nu_t_thz - nu_t_center) <= half_width
    box = np.abs(spectrum.data[np.ix_(rows, cols)])
    total = box.sum()
    if total == 0:
        return nu_tau_center, nu_t_center, 0.0
    return (float(np.sum(spectrum.nu_tau_thz[rows] * box.sum(axis=1)) / total),
            float(np.sum(spectrum.nu_t_thz[cols] * box.sum(axis=0)) / total),
            float(box.max()))


# --- targets ---------------------------------------------------------------

def _simulate_to_spectrum(cfg, report, name):
    """Simulate ``cfg``, write dataset ``name`` and return the spectrum,
    transformed in the signal's buffer."""
    signal = run_simulation(cfg)
    write_dataset(report.path(name), signal_to_dataset(signal))
    return to_spectrum(signal, overwrite=True)


def _target_fig1c(cfg, report, seed_shift):
    spectrum = _simulate_to_spectrum(cfg, report, "fig1c_pl.mdcs")
    write_trace_csv(report.path("fig1c_projection.csv"), project_nu_t(spectrum))

    lines = cfg.scheme.transition_frequencies()
    levels = cfg.scheme.transition_levels()
    bin_tau, bin_t = spectrum.bin_widths()
    half = 0.020
    for i, nu in enumerate(lines):
        c_tau, c_t, _ = _box(spectrum, -nu, nu, half)
        report.add_interval(f"direct_peak_{i}_nu_t_thz", c_t, nu - bin_t, nu + bin_t)
        report.add_interval(f"direct_peak_{i}_nu_tau_thz", c_tau,
                            -nu - bin_tau, -nu + bin_tau)

    shared, unshared = [], []
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            amp = _box(spectrum, -lines[i], lines[j], 0.010)[2]
            (shared if levels[i][0] == levels[j][0] else unshared).append(amp)
    ratio = min(shared) / max(max(unshared), 1e-300)
    report.add("cross_peak_contrast", ratio, "shared/unshared >= 5", ratio >= 5.0)


def _target_fig1d(cfg, report, seed_shift):
    spectrum = _simulate_to_spectrum(cfg, report, "fig1d_het.mdcs")
    projection = project_nu_t(spectrum)
    write_trace_csv(report.path("fig1d_projection.csv"), projection)

    width = interpolated_fwhm(projection.freqs_thz, projection.amplitude)
    report.add("projection_fwhm_thz", width, "expected > 1 THz", width > 1.0)

    # ridge on the nu_tau = -nu_t diagonal: the first largest |F|, by row blocks
    data, (n, n_t) = spectrum.data, spectrum.data.shape
    rows, peak, at = row_blocks(n, n_t), -1.0, 0
    for lo in rows:
        part = np.abs(data[lo:lo + rows.step]).ravel()
        i = int(part.argmax())
        if part[i] > peak:
            peak, at = part[i], lo * n_t + i
    i, j = divmod(at, n_t)
    mismatch = abs(spectrum.nu_tau_thz[i] + spectrum.nu_t_thz[j])
    bin_tau, bin_t = spectrum.bin_widths()
    report.add("peak_diagonal_offset_thz", mismatch,
               f"expected <= {2 * max(bin_tau, bin_t):.4g}",
               mismatch <= 2 * max(bin_tau, bin_t))

    # the ridge is the array's anti-diagonal; compare it with cells n // 8 rows off
    k = np.arange(min(n, n_t))
    ratio = np.abs(data[n - 1 - k, k]).mean() \
        / max(np.abs(data[n - 1 - (k + n // 8) % n, k]).mean(), 1e-300)
    report.add("diagonal_ridge_contrast", ratio, "diag/off >= 10", ratio >= 10.0)


def _target_fig2(cfg, report, seed_shift):
    # bright branch (PL detection, coarse frequency grid)
    bright_proj = project_nu_t(to_spectrum(run_simulation(cfg), overwrite=True))
    write_trace_csv(report.path("fig2_bright_projection.csv"), bright_proj)

    lowest = float(cfg.scheme.transition_frequencies()[0])
    width_ghz = 1e3 * fwhm(bright_proj.window(lowest, 0.042),
                           model="gaussian", background=True)[0]
    report.add_interval("bright_fwhm_ghz", width_ghz, 28.0 * 0.9, 28.0 * 1.1)

    # hidden branch (heterodyne, fine grid, broad two-level ensemble)
    hidden_cfg = _shift_seed(parse_config(FIG2_HIDDEN_CONFIG), seed_shift)
    hidden_proj = project_nu_t(to_spectrum(run_simulation(hidden_cfg), overwrite=True))
    write_trace_csv(report.path("fig2_hidden_projection.csv"), hidden_proj)

    # both width routes work on the central window; a constant-background
    # parameter absorbs the spectral-tail pedestal of the amplitude projection
    center = hidden_cfg.scheme.center_thz
    deconvolved = deconvolve_laser(hidden_proj, hidden_cfg.laser, floor=0.05)
    write_trace_csv(report.path("fig2_hidden_deconvolved.csv"), deconvolved)
    w_dec, u_dec = fwhm(deconvolved.rebinned(8).window(center, 1.1),
                        model="gaussian", background=True)
    report.add_interval("hidden_fwhm_deconvolved_thz", w_dec, 1.84 * 0.95, 1.84 * 1.05)

    fit = fit_finite_bandwidth(hidden_proj.rebinned(8).window(center, 1.1),
                               hidden_cfg.laser, background=True)
    w_fb = fit.extras["fwhm_thz"]
    u_fb = fit.extras["fwhm_sigma_thz"]
    report.add_interval("hidden_fwhm_lineshape_thz", w_fb, 1.84 * 0.95, 1.84 * 1.05)

    gap = abs(w_dec - w_fb)
    budget = u_dec + u_fb
    report.add("hidden_route_agreement_thz", gap,
               f"expected <= {budget:.4g}", gap <= budget)


def _target_fig3(cfg, report, seed_shift):
    ensemble = build_ensemble(cfg)
    grid, wait = cfg.grid, cfg.waiting_time_ps
    data = np.empty((grid.n_tau, grid.n_t), np.complex64)   # fig3's one full grid

    def projection(mode):
        add_noise(data, cfg.noise, cfg.seed + 1)    # run_simulation's noise
        signal = TimeDomainSignal(data, grid, wait, mode)
        return project_nu_t(to_spectrum(signal, overwrite=True))

    # (c) with yield suppression disabled, PL == Y0 * heterodyne; the yield-free
    # heterodyne rows stream with the flat-yield PL rows, for the complex128
    # bits of max |pl - 0.8 het| / max |het| / 0.8, and are stored in ``data``
    flat = replace(ensemble, quantum_yield=np.full(len(ensemble), 0.8))
    worst = scale = 0.0
    for (lo, het), (_, pl) in zip(signal_rows(ensemble, grid, wait, "heterodyne", cfg.laser),
                                  signal_rows(flat, grid, wait, "pl", cfg.laser)):
        worst = np.maximum(worst, np.abs(pl - 0.8 * het).max())
        scale = np.maximum(scale, np.abs(het).max())
        data[lo:lo + len(het)] = het
    del het, pl                     # the streamed blocks, before the next ones
    dev = worst / scale / 0.8
    het_proj = projection("heterodyne")
    for lo, pl in signal_rows(ensemble, grid, wait, "pl", cfg.laser):
        data[lo:lo + len(pl)] = pl
    del pl
    pl_proj = projection("pl")
    del data
    write_trace_csv(report.path("fig3_het_projection.csv"), het_proj)
    write_trace_csv(report.path("fig3_pl_projection.csv"), pl_proj)

    # (a) broad-component fraction, measured in the wings.  Power weights
    # (|amplitude|^2) keep the metric sensitive to the genuine broad feature
    # rather than to the slowly decaying tails every sampled line carries.
    center = cfg.scheme.center_thz
    wings = np.abs(het_proj.freqs_thz - center) > 0.15
    het_frac = (het_proj.amplitude[wings] ** 2).sum() / (het_proj.amplitude ** 2).sum()
    pl_frac = (pl_proj.amplitude[wings] ** 2).sum() / (pl_proj.amplitude ** 2).sum()
    report.add("pl_wing_fraction_ratio", pl_frac / het_frac,
               "expected < 0.1", pl_frac < 0.1 * het_frac)

    # (b) linewidth contrast
    w_het = interpolated_fwhm(het_proj.freqs_thz, het_proj.amplitude)
    w_pl = interpolated_fwhm(pl_proj.freqs_thz, pl_proj.amplitude)
    report.add("fwhm_ratio_het_over_pl", w_het / w_pl,
               "expected >= 20", w_het / w_pl >= 20.0)

    report.add("yield_off_proportionality_dev", dev,
               "expected <= 1e-6", dev <= 1e-6)


def _diagonal_decay(cfg):
    """The tau = t decay of ``cfg`` with ``run_simulation``'s noise seed."""
    diagonal = synthesize_diagonal(build_ensemble(cfg), cfg.grid, cfg.waiting_time_ps,
                                   cfg.mode, cfg.laser, noise_rms=cfg.noise,
                                   noise_seed=cfg.seed + 1)
    return diagonal_decay(diagonal, cfg.grid.tau_step_ps)


def _target_fig4(cfg, report, seed_shift):
    # PL-detected bright diagonal: mono-exponential
    pl_decay = _diagonal_decay(cfg)
    write_decay_csv(report.path("fig4_pl_diagonal.csv"), pl_decay)
    mono = fit_exponential(pl_decay.truncated(600.0), 1)
    report.add_interval("pl_t2a_ps", mono["T2a_ps"], 122 - 7, 122 + 7)

    # heterodyne hidden diagonal: bi-exponential
    het_cfg = _shift_seed(parse_config(FIG4_HET_CONFIG), seed_shift)
    het_decay = _diagonal_decay(het_cfg)
    write_decay_csv(report.path("fig4_het_diagonal.csv"), het_decay)
    bi = fit_exponential(het_decay, 2)
    report.add_interval("het_t2a_ps", bi["T2a_ps"], 120 - 5, 120 + 5)
    report.add_interval("het_t2b_ps", bi["T2b_ps"], 990 - 180, 990 + 180)

    report.add_interval("het_width_a_ghz",
                        lorentzian_width_from_t2(bi["T2a_ps"]),
                        1.33 - 0.06, 1.33 + 0.06)
    report.add_interval("het_width_b_mhz",
                        1e3 * lorentzian_width_from_t2(bi["T2b_ps"]),
                        160 - 30, 160 + 30)

    with open(report.path("fig4_fits.txt"), "w") as fh:
        fh.write(mono.as_text() + "\n\n" + bi.as_text() + "\n")


def _target_t1scan(cfg, report, seed_shift):
    ensemble = build_ensemble(cfg)
    waits = np.arange(0.0, 4000.1, 250.0)
    scan = waiting_time_scan(ensemble, 2.0, 2.0, waits, cfg.mode,
                             cfg.laser, cfg.grid.frame_thz)
    write_tscan_csv(report.path("t1scan.csv"), scan)
    amps = np.array([abs(a) for _, a in scan])
    if not (amps > 0).all():
        raise InvalidSpec("the waiting-time scan is 0 at some wait, so T1 cannot be fitted")
    slope, _ = np.polyfit(waits, np.log(amps), 1)      # scale-free, unlike an LM fit
    t1_ps = -1.0 / slope
    report.add_interval("t1_ns", t1_ps * 1e-3, 1.7 * 0.95, 1.7 * 1.05)


_TARGET_FNS = {
    "fig1c": _target_fig1c,
    "fig1d": _target_fig1d,
    "fig2": _target_fig2,
    "fig3": _target_fig3,
    "fig4": _target_fig4,
    "t1scan": _target_t1scan,
}


def run_reproduction(target: str, config_text: str | None = None,
                     out_dir: str = ".", seed: int | None = None,
                     threads: int = 1) -> Report:
    """Run one reproduction target and write its artifacts and report.
    ``threads`` is ignored: synthesis is serial, BLAS uses every core."""
    if target not in TARGETS:
        raise ValueError(f"unknown reproduction target {target!r}; "
                         f"choose from {', '.join(TARGETS)}")
    cfg = parse_config(config_text if config_text is not None
                       else DEFAULT_CONFIGS[target])
    seed_shift = 0 if seed is None else seed - cfg.seed
    cfg = _shift_seed(cfg, seed_shift)
    os.makedirs(out_dir, exist_ok=True)
    report = Report(target, cfg, out_dir)
    _TARGET_FNS[target](cfg, report, seed_shift)
    text = report.to_text()      # the report file does not list itself
    with open(report.path(f"{target}_report.txt"), "w") as fh:
        fh.write(text)
    return report
