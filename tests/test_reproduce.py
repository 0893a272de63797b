import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memory import peak_bytes
from sivmdcs.cli import EXIT_OK, main
from sivmdcs.config import parse_config
from sivmdcs.reproduce import (DEFAULT_CONFIGS, FIG2_HIDDEN_CONFIG, TARGETS,
                               build_ensemble, run_reproduction, run_simulation)
from sivmdcs.response import synthesize_signal
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
    het, pl = (synthesize_signal(ens, cfg.grid, cfg.waiting_time_ps, mode,
                                 cfg.laser).data
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


def test_a_traced_benchmark_round_of_the_figures_passes():
    # the benchmark traces the program through names the targets call, such
    # as reproduce.synthesize_signal; a target that stops calling one makes
    # the traced run fail here
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=root, capture_output=True, text=True, timeout=300)
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
