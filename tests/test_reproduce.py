import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memory import peak_bytes
from wide import wide_signal
from sivmdcs.cli import EXIT_OK, EXIT_RUNTIME, main
from sivmdcs.config import parse_config
from sivmdcs.reproduce import (DEFAULT_CONFIGS, FIG2_HIDDEN_CONFIG, TARGETS,
                               build_ensemble, run_reproduction, run_simulation)
from sivmdcs.spectra import to_spectrum


def test_seed_override_reaches_secondary_branch(tmp_path):
    # fig4's heterodyne branch samples its own ensemble from a second config
    diagonals = []
    for seed in (None, 7, 99):
        out = tmp_path / str(seed)
        report = run_reproduction("fig4", out_dir=str(out), seed=seed)
        assert report.cfg.seed == (7 if seed is None else seed)
        diagonals.append((out / "fig4_het_diagonal.csv").read_bytes())
    # 7 is fig4's configured seed: overriding with it changes nothing
    assert diagonals[0] == diagonals[1] != diagonals[2]


def _check(report, name):
    (value,) = [c.value for c in report.checks if c.name == name]
    return value


def test_fig3_streamed_proportionality_dev_has_the_whole_array_bits(tmp_path):
    # fig3's yield-off check streams the flat-yield PL rows against the
    # heterodyne grid; it must report the bits of the whole-array expression
    cfg = parse_config(DEFAULT_CONFIGS["fig3"])
    ensemble = build_ensemble(cfg)
    het, pl = (wide_signal(ens, cfg.grid, cfg.waiting_time_ps, mode, cfg.laser)
               for ens, mode in ((ensemble, "heterodyne"),
                                 (replace(ensemble, quantum_yield=np.full(
                                     len(ensemble), 0.8)), "pl")))
    whole = np.max(np.abs(pl - 0.8 * het)) / np.max(np.abs(het)) / 0.8
    report = run_reproduction("fig3", out_dir=str(tmp_path))
    assert _check(report, "yield_off_proportionality_dev") == whole


def test_fig1d_blocked_ridge_checks_have_the_whole_array_bits(tmp_path):
    # the argmax by row blocks of |F| and the ridge means at indexed cells
    cfg = parse_config(DEFAULT_CONFIGS["fig1d"])
    spectrum = to_spectrum(run_simulation(cfg))
    magnitude = np.abs(spectrum.data)
    i, j = np.unravel_index(np.argmax(magnitude), magnitude.shape)
    flipped = np.flipud(magnitude)
    k, n = np.arange(min(flipped.shape)), len(flipped)
    report = run_reproduction("fig1d", out_dir=str(tmp_path))
    assert _check(report, "peak_diagonal_offset_thz") \
        == abs(spectrum.nu_tau_thz[i] + spectrum.nu_t_thz[j])
    assert _check(report, "diagonal_ridge_contrast") \
        == flipped[k, k].mean() / flipped[(k + n // 8) % n, k].mean()


@pytest.mark.parametrize("target,dataset", [("fig1c", "fig1c_pl.mdcs"),
                                            ("fig1d", "fig1d_het.mdcs")])
def test_a_projection_is_the_file_chains_projection_of_its_dataset(tmp_path, capsys,
                                                                   target, dataset):
    # the target transforms the complex64 grid it writes, so `spectrum` then
    # `project` on that dataset give its projection CSV byte for byte
    run_reproduction(target, out_dir=str(tmp_path))
    out = ["--out-dir", str(tmp_path / "chain")]
    assert main(["spectrum", str(tmp_path / dataset), *out]) == EXIT_OK
    assert main(["project", str(tmp_path / "chain" / "spectrum.mdcs"), *out]) == EXIT_OK
    assert (tmp_path / "chain" / "projection.csv").read_bytes() \
        == (tmp_path / f"{target}_projection.csv").read_bytes()


def test_fig3_adds_the_configured_noise_as_simulate_does(tmp_path):
    # each projection is the file chain's projection of `simulate --mode`
    # on fig3's config, noise included
    text = DEFAULT_CONFIGS["fig3"].replace("noise = 0.0", "noise = 1.0")
    config = tmp_path / "fig3.toml"
    config.write_text(text)
    run_reproduction("fig3", text, out_dir=str(tmp_path))
    for mode, name in (("heterodyne", "het"), ("pl", "pl")):
        out = ["--out-dir", str(tmp_path / mode)]
        assert main(["simulate", "--config", str(config), "--mode", mode, *out]) == EXIT_OK
        assert main(["spectrum", str(tmp_path / mode / "run_signal.mdcs"), *out]) == EXIT_OK
        assert main(["project", str(tmp_path / mode / "spectrum.mdcs"), *out]) == EXIT_OK
        assert (tmp_path / mode / "projection.csv").read_bytes() \
            == (tmp_path / f"fig3_{name}_projection.csv").read_bytes()


def test_a_dark_laser_stops_t1scan_with_one_error_line(tmp_path, capsys):
    # a laser far from every line weights every pathway 0: the scan is 0 at
    # every wait, and its log-linear T1 fit would take the log of 0
    config = tmp_path / "t1scan.toml"
    config.write_text(DEFAULT_CONFIGS["t1scan"].replace("center = 406.770 thz",
                                                        "center = 500 thz"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["reproduce", "t1scan", "--config", str(config),
                     "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME and not caught
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_t1scan_measures_t1_under_a_faint_laser(tmp_path):
    # 43 THz off the lines the scan is about 1e-261 of its usual size; T1 is
    # a ratio of its samples, and the fit must not depend on their scale
    text = DEFAULT_CONFIGS["t1scan"].replace("center = 406.770 thz", "center = 450 thz")
    report = run_reproduction("t1scan", text, out_dir=str(tmp_path))
    assert report.passed and _check(report, "t1_ns") == pytest.approx(1.7, rel=1e-9)


@pytest.mark.parametrize("workload,seconds", [("figures", 300), ("sweep", 120)])
def test_a_traced_benchmark_round_passes(workload, seconds):
    # the benchmark traces the program through names the targets call, such
    # as reproduce.synthesize_signal, and checks the sweep's signals against
    # the closed form; a target that stops calling one, or a synthesis that
    # moves the sweep's values, fails here
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=root, capture_output=True, text=True, timeout=seconds)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


# fig3 with log-normal T2 takes the dense route for all three of its streams
LOGNORMAL_FIG3 = DEFAULT_CONFIGS["fig3"].replace("t2 = 20 ps", "t2 = lognormal 20 ps 0.3")


@pytest.mark.parametrize("target,text", [
    *((target, None) for target in TARGETS), ("fig3", LOGNORMAL_FIG3)],
    ids=[*TARGETS, "fig3-lognormal-t2"])
def test_a_target_holds_at_most_a_signal_and_a_spectrum(tmp_path, target, text):
    # a full grid is one complex64 signal or spectrum of the target's
    # largest grid; each transform runs in its signal's buffer, so a signal
    # and its spectrum are one grid, and every other reader streams or reads
    # cells: a second full grid, or one complex128 grid, fails this.  fig4
    # reads only the tau = t diagonals and synthesizes no grid: 2 MiB,
    # against 8 MiB for one grid
    texts = [text or DEFAULT_CONFIGS[target]]
    texts += {"fig2": [FIG2_HIDDEN_CONFIG]}.get(target, [])
    grid = max(8 * cfg.grid.n_tau * cfg.grid.n_t for cfg in map(parse_config, texts))
    bound = 2 * 2**20 if target == "fig4" else grid + 9 * 2**20
    peak = peak_bytes(lambda: run_reproduction(target, text, out_dir=str(tmp_path)))
    assert peak <= bound


@pytest.mark.parametrize("seed", range(200, 220))
def test_fig4_dephasing_fits_pass_on_fresh_seeds(tmp_path, seed):
    # criterion 4 beyond the configured seed: all five checks hold for
    # seeds that no tolerance was tuned on
    report = run_reproduction("fig4", out_dir=str(tmp_path), seed=seed)
    assert len(report.checks) == 5 and report.passed, report.to_text()
