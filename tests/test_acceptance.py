"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line.  The reproduction targets are executed once per session and
shared across criteria; bit-reproducibility re-runs them.
"""
import hashlib
import time

import numpy as np
import pytest

from ensembles import two_level
from oracles import rephasing_response_oracle
from wide import wide_signal
from sivmdcs.config import parse_config
from sivmdcs.pathways import TagSet, rephasing_frequency
from sivmdcs.pulsetrain import demodulate, simulate_pulse_train
from sivmdcs.reproduce import run_reproduction, run_simulation
from sivmdcs.response import Grid, TimeDomainSignal
from sivmdcs.spectra import diagonal_lineout, to_spectrum

TARGET_LIST = ("fig1c", "fig1d", "fig2", "fig3", "fig4", "t1scan")


def _verdict(number, description, ok):
    print(f"criterion {number:02d} [{description}]: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="session")
def reports(tmp_path_factory):
    """Run every reproduction target once, keeping reports and wall times."""
    base = tmp_path_factory.mktemp("targets")
    out = {}
    for target in TARGET_LIST:
        out_dir = base / target
        start = time.perf_counter()
        report = run_reproduction(target, out_dir=str(out_dir))
        out[target] = (report, time.perf_counter() - start, out_dir)
    return out


def _checks(reports, target, prefix=None):
    report = reports[target][0]
    return [c for c in report.checks
            if prefix is None or c.name.startswith(prefix)]


def test_criterion_01_peak_map(reports):
    report, elapsed, _ = reports["fig1c"]
    position_checks = [c for c in report.checks if c.name.startswith("direct_peak")]
    cross = [c for c in report.checks if c.name == "cross_peak_contrast"]
    bins = 1.0 / (report.cfg.grid.n_tau * report.cfg.grid.tau_step_ps)
    ok = (all(c.passed for c in position_checks)
          and len(position_checks) == 8
          and all(c.passed for c in cross)
          and bins <= 0.002
          and elapsed < 120.0)
    assert _verdict(1, "peak map: line positions, cross-peak selectivity, "
                       f"runtime {elapsed:.0f}s", ok), report.to_text()


def test_criterion_02_bright_linewidth(reports):
    checks = _checks(reports, "fig2", "bright_fwhm")
    ok = len(checks) == 1 and checks[0].passed
    assert _verdict(2, f"bright linewidth {checks[0].value:.1f} GHz "
                       "in 28 +- 10%", ok), reports["fig2"][0].to_text()


def test_criterion_03_hidden_linewidth_two_routes(reports):
    checks = _checks(reports, "fig2", "hidden_")
    ok = len(checks) == 3 and all(c.passed for c in checks)
    widths = ", ".join(f"{c.value:.3f}" for c in checks[:2])
    assert _verdict(3, f"hidden width routes ({widths} THz) in 1.84 +- 5% "
                       "and mutually consistent", ok), reports["fig2"][0].to_text()


def test_criterion_04_dephasing_fits(reports):
    report = reports["fig4"][0]
    ok = len(report.checks) == 5 and report.passed
    assert _verdict(4, "dephasing fits: mono 122 +- 7 ps, "
                       "bi (120 +- 5, 990 +- 180) ps and derived widths", ok), \
        report.to_text()


def test_criterion_05_echo_invariance():
    base = """
[grid]
tau_points = 1224
t_points = 1224
tau_step = 0.15 ps
t_step = 0.15 ps

[simulation]
mode = heterodyne
seed = 21
ensemble_size = 500

[component.only]
weight = 1.0
strain_shape = gaussian
strain_fwhm = {fwhm}
t2 = 122 ps
two_level = true
"""
    decays = []
    for fwhm in (0.028, 1.84):
        cfg = parse_config(base.format(fwhm=fwhm))
        signal = run_simulation(cfg)
        decay = diagonal_lineout(signal)
        decays.append(decay.amplitude / decay.amplitude[0])
    span = decays[0].shape[0] * 2 * 0.15
    rms = float(np.sqrt(np.mean((decays[0] - decays[1]) ** 2)))
    ok = rms < 0.02 and span >= 3 * 122.0
    assert _verdict(5, f"echo decay invariant across 66x width change, "
                       f"rms {rms:.2e} over {span:.0f} ps", ok)


def test_criterion_06_detection_mode_contrast(reports):
    report = reports["fig3"][0]
    ok = len(report.checks) == 3 and report.passed
    assert _verdict(6, "detection-mode contrast: hidden wings suppressed, "
                       ">= 20x width ratio, yield-off proportionality", ok), \
        report.to_text()


def test_criterion_07_density_matrix_oracle():
    start = time.perf_counter()
    frame = 406.770
    grid = Grid(5, 5, 0.6, 0.6, frame)
    worst = 0.0
    for d in (-0.3, 0.0, 0.45):
        for t2 in (15.0, 122.0):
            for wait in (0.5, 300.0):
                emitter = two_level(frame + d, t2_ps=t2, t1_ps=1700.0)
                signal = wide_signal(emitter, grid, wait, "heterodyne")
                for i, tau in enumerate(grid.tau_ps):
                    for j, t in enumerate(grid.t_ps):
                        oracle = rephasing_response_oracle(d, t2, 1700.0,
                                                          tau, wait, t)
                        dev = abs(signal[i, j] - oracle) / abs(oracle)
                        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    assert _verdict(7, f"density-matrix oracle: max deviation {worst:.2e}, "
                       f"{elapsed:.1f}s", ok)


def test_criterion_08_lock_in_demodulation():
    tags = TagSet()
    sig = (-1, 1, 1, -1)
    amp = 0.42 * np.exp(0.6j)
    record = simulate_pulse_train({sig: amp, (1, 1, -1, -1): 4.0,
                                   (-1, -1, 1, 1): 2.5 - 1.0j},
                                  tags, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    got = demodulate(record, rephasing_frequency(tags), bandwidth_khz=1.0)
    accuracy = abs(got - amp) / abs(amp)

    contaminated = simulate_pulse_train({(1, 1, -1, -1): 1.0}, tags,
                                        duration_us=20000.0,
                                        sample_rate_msps=5.0)
    leak = abs(demodulate(contaminated, rephasing_frequency(tags),
                          bandwidth_khz=1.0))
    rejection_db = 20.0 * np.log10(1.0 / max(leak, 1e-300))
    ok = accuracy <= 0.01 and rejection_db >= 60.0
    assert _verdict(8, f"lock-in: amplitude error {100 * accuracy:.2f}%, "
                       f"rejection {rejection_db:.0f} dB", ok)


def test_criterion_09_population_lifetime(reports):
    report = reports["t1scan"][0]
    ok = report.passed and len(report.checks) == 1
    assert _verdict(9, f"waiting-time scan T1 {report.checks[0].value:.3f} ns "
                       "in 1.7 +- 5%", ok), report.to_text()


def test_criterion_10_numerics_and_reproducibility(reports, tmp_path_factory):
    rng = np.random.default_rng(17)
    data = rng.normal(size=(64, 48)) + 1j * rng.normal(size=(64, 48))
    signal = TimeDomainSignal(data, Grid(64, 48, 0.5, 0.5, 406.770), 0.5, "pl")
    spec = to_spectrum(signal)
    rhs = spec.parseval_norm * np.sum(np.abs(signal.data) ** 2)
    parseval_dev = abs(np.sum(np.abs(spec.data) ** 2) - rhs) / rhs

    from oracles import jacobian_fd_error
    from test_fitting import JACOBIAN_CASES
    jac_worst = max(jacobian_fd_error(fn, jac, x, p)
                    for _, fn, jac, x, p in JACOBIAN_CASES)

    second = tmp_path_factory.mktemp("repro")
    identical = True
    for target in TARGET_LIST:
        report, _, first_dir = reports[target]
        rerun = run_reproduction(target, out_dir=str(second / target))
        for name in report.artifacts:
            a = hashlib.sha256((first_dir / name).read_bytes()).hexdigest()
            b = hashlib.sha256((second / target / name).read_bytes()).hexdigest()
            if a != b:
                identical = False

    ok = parseval_dev < 1e-10 and jac_worst < 1e-6 and identical
    assert _verdict(10, f"Parseval {parseval_dev:.1e}, Jacobians "
                        f"{jac_worst:.1e}, artifacts bit-reproducible "
                        f"({identical})", ok)
