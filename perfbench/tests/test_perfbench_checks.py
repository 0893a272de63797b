"""Each check of the benchmark accepts the program's honest output and
rejects a wrong answer.  Run with ``python3 -m pytest perfbench/tests``."""
import json
import math
import os

import numpy as np
import pytest

from perfbench import closed_form, harness, mdcs_file, spans, workloads
from sivmdcs.config import parse_config
from sivmdcs.reproduce import DEFAULT_CONFIGS, Report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _analysis_pass(tmp_path, seed=0):
    wl = workloads.Analysis(seed, str(tmp_path))
    outputs = wl.run_item(0)
    return wl, outputs, wl.check(0, outputs)


def test_analysis_accepts_the_chain_and_counts_the_five_probes(tmp_path):
    _, outputs, tally = _analysis_pass(tmp_path)
    assert tally.problems == []
    assert (tally.attempted, tally.failed) == (12, 5)
    assert all(code == 0 for code, _ in outputs[:workloads.Analysis.CHAIN])


def test_analysis_rejects_an_input_whose_t2_is_off_by_ten_percent(tmp_path, monkeypatch):
    honest = closed_form.echo_signal

    def off(n, step, nu0, fwhm, classes, *rest):
        return honest(n, step, nu0, fwhm, [(1.1 * t2, w) for t2, w in classes], *rest)

    monkeypatch.setattr(closed_form, "echo_signal", off)
    _, _, tally = _analysis_pass(tmp_path)
    assert any("T2a_ps" in p for p in tally.problems)
    assert any("T2b_ps" in p for p in tally.problems)


def test_analysis_rejects_a_spectrum_that_breaks_parseval(tmp_path):
    wl, _, _ = _analysis_pass(tmp_path)
    path = os.path.join(str(tmp_path), "spectrum.mdcs")
    matrix, axes, meta = mdcs_file.read(path)
    mdcs_file.write(path, 1.001 * matrix, axes, meta)
    tally = workloads.Tally()
    wl.check_files(tally)
    assert any("Parseval" in p for p in tally.problems)


def test_analysis_rejects_a_wrong_demodulated_amplitude(tmp_path):
    wl = workloads.Analysis(0, str(tmp_path))
    for factor, ok in ((1.0, True), (1.02, False)):
        tally = workloads.Tally()
        got = factor * wl.amplitude
        wl.check_demod(tally, f"demodulated = {got}+0j (|.| = {got:.6g})")
        assert (tally.problems == []) is ok


def test_analysis_counts_a_failing_chain_call_as_a_problem(tmp_path):
    wl, outputs, _ = _analysis_pass(tmp_path)
    outputs[0] = (1, "")
    tally = wl.check(0, outputs)
    assert tally.problems and tally.failed == 6


def test_t1_scan_check_rejects_a_wrong_t1():
    waits = workloads.SWEEP_WAITS_PS
    for t1_ps, ok in ((1700.0, True), (1600.0, False)):
        scan = [(float(T), (0.3 - 0.2j) * math.exp(-T / t1_ps)) for T in waits]
        tally = workloads.Tally()
        workloads.check_t1_scan(tally, "test", scan, waits, workloads.SWEEP_T1_PS)
        assert (tally.problems == []) is ok


def test_closed_form_matches_quadrature():
    model = workloads.SWEEP_MODEL
    for comp in model.components:
        exact = closed_form.heterodyne_moments(model, comp)
        quad = closed_form.amplitude_moments(model, comp, pl=False)
        assert np.allclose(exact, quad, rtol=1e-9)


def test_sweep_accepts_the_program_and_rejects_a_wrong_mean(tmp_path):
    wl = workloads.Sweep(0, str(tmp_path))
    het, pl, scan = wl.run_item(0)
    assert wl.check(0, (het, pl, scan)).problems == []
    # a 10 % error lies well beyond the tolerance of five standard errors
    for mean, err in (wl.het, wl.pl):
        assert 0.1 * mean > 1.5 * workloads.SWEEP_SIGMAS * err
    tally = wl.check(0, (1.1 * het, pl, scan))
    assert len(tally.problems) == 1 and "heterodyne" in tally.problems[0]
    tally = wl.check(0, (het, 0.9 * pl, scan))
    assert len(tally.problems) == 1 and "pl" in tally.problems[0]


def _report(out_dir, passed, target="t1scan"):
    report = Report(target, parse_config(DEFAULT_CONFIGS[target]))
    report.add("t1_ns", 1.7 if passed else 2.5, "expected in [1.615, 1.785]", passed)
    os.makedirs(os.path.join(out_dir, target))
    with open(os.path.join(out_dir, target, f"{target}_report.txt"), "w") as fh:
        fh.write(report.to_text())
    return report


@pytest.mark.parametrize("passed", [True, False])
def test_figures_rejects_a_report_with_one_failed_check(tmp_path, passed):
    wl = workloads.Figures(0, str(tmp_path))
    tally = wl.check(0, ("t1scan", _report(str(tmp_path), passed)))
    assert (tally.problems == []) is passed


def test_figures_rejects_a_report_with_fewer_checks(tmp_path):
    wl = workloads.Figures(0, str(tmp_path))
    report = _report(str(tmp_path), True, "fig4")
    tally = wl.check(0, ("fig4", report))   # fig4 carries five checks today
    assert any("expected at least 5" in p for p in tally.problems)


def test_traced_run_fails_loudly_when_a_layer_records_no_span(tmp_path, monkeypatch):
    kept = [b for b in spans._PROGRAM if b[1] != "to_spectrum"]
    monkeypatch.setattr(spans, "_PROGRAM", kept)
    monkeypatch.setattr(workloads.Analysis, "items_per_round", 1)
    with pytest.raises(harness.BenchmarkError, match="spectra.transform"):
        harness.run(str(tmp_path), "", "analysis", 0, 0.0, traced=True)


def test_traced_run_restores_the_program_and_accounts_for_item_time(tmp_path, monkeypatch):
    import sivmdcs.cli
    before = sivmdcs.cli.to_spectrum
    monkeypatch.setattr(workloads.Analysis, "items_per_round", 1)
    result = harness.run(str(tmp_path), "", "analysis", 0, 0.0, traced=True)
    assert sivmdcs.cli.to_spectrum is before
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_ms = sum(metrics[spans.layer_metrics(layer)[0]] for layer in spans.LAYERS)
    assert self_ms == pytest.approx(metrics["trace.traced_ms"], rel=1e-3)
    assert metrics["spectra.transform_spans"] == 1


def test_mdcs_reader_detects_a_flipped_byte(tmp_path):
    path = str(tmp_path / "x.mdcs")
    matrix = (np.arange(6) + 1j).reshape(2, 3)
    axes = (("tau", "ps", np.arange(2.0)), ("t", "ps", np.arange(3.0)))
    mdcs_file.write(path, matrix, axes, {"kind": "time-domain"})
    got, got_axes, meta = mdcs_file.read(path)
    assert np.array_equal(got, matrix) and meta == {"kind": "time-domain"}
    assert np.array_equal(got_axes[1][2], axes[1][2])
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 1
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="CRC"):
        mdcs_file.read(path)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
