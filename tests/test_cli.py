import math
import warnings

import numpy as np
import pytest

from sivmdcs.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
                         MAX_WAITS, main)
from sivmdcs.dataset import write_dataset
from sivmdcs.io_utils import signal_to_dataset, spectrum_to_dataset
from sivmdcs.pulsetrain import MAX_SAMPLES
from sivmdcs.response import Grid, TimeDomainSignal
from sivmdcs.spectra import Spectrum2D

TINY_CONFIG = """
[grid]
tau_points = 48
t_points = 48
tau_step = 0.5 ps
t_step = 0.5 ps

[simulation]
mode = heterodyne
seed = 3
ensemble_size = 20

[component.only]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.1
t2 = 40 ps
two_level = true
"""


def _write_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "sivmdcs" in capsys.readouterr().out


def test_usage_errors():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["reproduce", "fig9"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_missing_input_is_runtime_error(tmp_path, capsys):
    code = main(["spectrum", str(tmp_path / "nope.mdcs"),
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


NON_FINITE_CASES = [
    pytest.param(line, template, value, id=f"{line}-{template}-{value}")
    for line, template in [("t2 = 40 ps", "t2 = {} ps"),
                           ("strain_fwhm = 0.1", "strain_fwhm = {}")]
    for value in ("nan", "inf", "-inf")
] + [
    # finite numbers that overflow when converted to the canonical unit
    pytest.param("seed = 3", "seed = 3\nwaiting_time = {} us", "1e308",
                 id="waiting_time-overflows"),
    pytest.param("t2 = 40 ps", "t2 = 40 ps\nt1 = {} us", "1e308",
                 id="t1-overflows"),
]


@pytest.mark.parametrize("line,template,value", NON_FINITE_CASES)
def test_non_finite_config_value_is_runtime_error(tmp_path, capsys, line,
                                                  template, value):
    text = TINY_CONFIG.replace(line, template.format(value))
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path),
                 "--output", "sig.mdcs"]) == EXIT_RUNTIME
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "sig.mdcs").exists()


@pytest.mark.parametrize("argv", [
    ["fit-decay", "d.csv", "--config", "missing.cfg"],
    ["fit-decay", "d.csv", "--threads", "8"],
    ["fit-decay", "d.csv", "--out-dir", "x"],
    ["fit-width", "p.csv", "--out-dir", "x"],
    ["project", "s.mdcs", "--threads", "2"],
    ["project", "s.mdcs", "--seed", "1"],
    ["spectrum", "s.mdcs", "--config", "c.cfg"],
    ["lineout", "s.mdcs", "--verbose"],
    ["deconvolve", "p.csv", "--seed", "1"],
    ["demod", "--out-dir", "x"],
    ["tscan", "--threads", "2"],
    ["reproduce", "t1scan", "--verbose"],
    ["simulate", "--threads", "2"],
    ["reproduce", "fig1c", "--threads", "2"],
])
def test_option_a_command_does_not_read_is_usage_error(capsys, argv):
    # none of the files named exists: parsing fails before any is opened
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("fit-width", "nu_t (THz),amplitude (arb),valid\n406.7,abc,1\n"),
    ("fit-width", ""),
    ("fit-decay", "t_plus_tau (ps),amplitude (arb)\n0.0,1.0\n2.0,0.9\n"),
    # a cell past the csv module's field size limit (131,072 characters)
    pytest.param("fit-decay", "t_plus_tau (ps),amplitude (arb)\n" + "1" * 200_000 + ",2\n",
                 id="fit-decay-oversized-cell"),
])
def test_malformed_analysis_input_is_runtime_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def _binary_dataset(path):
    rng = np.random.default_rng(5)
    data = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))).astype(np.complex64)
    write_dataset(path, signal_to_dataset(
        TimeDomainSignal(data, Grid(8, 8, 0.5, 0.5, 406.77), 0.5, "pl")))


@pytest.mark.parametrize("content", ["binary .mdcs", "latin-1 csv"])
@pytest.mark.parametrize("argv", [
    ["fit-decay", "IN"],
    ["fit-width", "IN"],
    ["deconvolve", "IN", "--out-dir", "OUT"],
    ["simulate", "--config", "IN", "--out-dir", "OUT"],
    ["reproduce", "fig1c", "--config", "IN", "--out-dir", "OUT"],
], ids=lambda argv: argv[0])
def test_text_that_is_not_utf8_is_a_runtime_error(tmp_path, capsys, argv, content):
    path, out = tmp_path / "input", tmp_path / "out"
    if content == "binary .mdcs":
        _binary_dataset(path)
    else:
        path.write_bytes("t_plus_tau (ps),amplitude (arb)\n0.0,1.0 \xe9\n"
                         .encode("latin-1"))
    argv = [{"IN": str(path), "OUT": str(out)}.get(arg, arg) for arg in argv]
    assert main(argv) == EXIT_RUNTIME
    assert f"error: {path} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_project_refuses_a_projection_that_overflows(tmp_path, capsys):
    # finite complex64 values whose |F| column sums overflow float32
    rng = np.random.default_rng(0)
    data = (rng.normal(size=(64, 64)) * 3e35).astype(np.complex64)
    write_dataset(tmp_path / "signal.mdcs", signal_to_dataset(
        TimeDomainSignal(data, Grid(64, 64, 0.5, 0.5, 406.77), 0.5, "pl")))
    out = str(tmp_path)
    assert main(["spectrum", str(tmp_path / "signal.mdcs"), "--out-dir", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["project", str(tmp_path / "spectrum.mdcs"), "--out-dir", out]) == EXIT_RUNTIME
    assert "holds a NaN or an infinity" in capsys.readouterr().err
    assert not (tmp_path / "projection.csv").exists()


def _overflowing_spectrum(tmp_path):
    """A 64 x 64 complex64 spectrum of 3e38 + 3e38j, whose |F| overflows."""
    axis = 0.01 * np.arange(64)
    path = tmp_path / "spectrum.mdcs"
    write_dataset(path, spectrum_to_dataset(Spectrum2D(
        np.full((64, 64), 3e38 + 3e38j, np.complex64), -406.77 - axis[::-1],
        406.77 + axis, 1, 4096.0)))
    return str(path)


def test_a_refused_write_leaves_no_new_out_dir(tmp_path, capsys):
    spectrum = _overflowing_spectrum(tmp_path)
    for new in (tmp_path / "new", tmp_path / "a" / "b"):
        assert main(["project", spectrum, "--out-dir", str(new)]) == EXIT_RUNTIME
        assert not new.exists()
    assert not (tmp_path / "a").exists()
    old = tmp_path / "old"
    old.mkdir()
    (old / "keep.txt").write_text("kept")
    assert main(["project", spectrum, "--out-dir", str(old)]) == EXIT_RUNTIME
    assert sorted(p.name for p in old.iterdir()) == ["keep.txt"]
    assert (old / "keep.txt").read_text() == "kept"
    assert "holds a NaN or an infinity" in capsys.readouterr().err


def test_overflow_refusals_print_no_numpy_warning(tmp_path, capsys):
    # a warning turned into an error would escape main; none may be raised,
    # so that the program's own reason is the first line on stderr
    spectrum = _overflowing_spectrum(tmp_path)
    for argv in (["project", spectrum, "--out-dir", str(tmp_path)],
                 ["demod", "--amplitude", "1e308"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error:")


def test_output_section_is_an_unknown_section(tmp_path, capsys):
    # the default file name of simulate stays run_signal.mdcs
    assert main(["simulate", "--config", _write_config(tmp_path),
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "run_signal.mdcs").exists()
    capsys.readouterr()
    bad = tmp_path / "output.cfg"
    bad.write_text(TINY_CONFIG + "\n[output]\ndirectory = out\nbasename = run\n")
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)]) \
        == EXIT_RUNTIME
    assert "unknown section [output]" in capsys.readouterr().err


def test_negative_seed_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("seed = 3", "seed = -1"))
    for config, extra in ((str(bad), []), (_write_config(tmp_path), ["--seed", "-1"])):
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path),
                     "--output", "sig.mdcs", *extra]) == EXIT_RUNTIME
        assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "sig.mdcs").exists()


TRACE_ROWS = "".join(f"{406.5 + 0.05 * k!r},{amp},1\n"
                     for k, amp in enumerate((0.1, 0.4, 1.0, 0.5, 0.2, 0.05)))


@pytest.mark.parametrize("model", ["gaussian", "lineshape"])
@pytest.mark.parametrize("rows", [
    TRACE_ROWS.replace("0.1,", "nan,", 1),    # a non-finite amplitude
    TRACE_ROWS.splitlines(keepends=True)[2],  # a single row
])
def test_fit_width_refuses_nan_and_one_row_traces(tmp_path, capsys, model, rows):
    path = tmp_path / "trace.csv"
    path.write_text("nu_t (THz),amplitude (arb),valid\n" + rows)
    assert main(["fit-width", str(path), "--model", model]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "error:" in captured.err and "fwhm_thz" not in captured.out


# one sample above half, next to an extreme bin: the right crossing sits a
# fraction 0.5 / (1 + 9.0e15) of the 1.6e32 THz step out from the peak
EXTREME_BIN_ROWS = [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (1.0, 0.0), (2.0, 0.0),
                    (3.0, 0.0), (4.0, 1.0), (1.622592768292134e+32, -9007199159670887.0)]


@pytest.mark.parametrize("mirror", [False, True])
def test_fit_width_interpolated_crossing_next_to_an_extreme_bin(tmp_path, capsys, mirror):
    rows = [(-f, a) for f, a in reversed(EXTREME_BIN_ROWS)] if mirror else EXTREME_BIN_ROWS
    path = tmp_path / "trace.csv"
    path.write_text("nu_t (THz),amplitude (arb)\n"
                    + "".join(f"{f!r},{a!r}\n" for f, a in rows))
    assert main(["fit-width", str(path), "--model", "interpolated"]) == EXIT_OK
    width = capsys.readouterr().out.split("fwhm_thz = ")[1].split()[0]
    assert float(width) == pytest.approx(9.0072e15, rel=1e-4)


def test_pipeline_chain(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path)

    assert main(["simulate", "--config", cfg, "--out-dir", out,
                 "--output", "sig.mdcs", "--verbose"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "config sha256" in text and "sig.mdcs" in text

    sig = str(tmp_path / "sig.mdcs")
    assert main(["spectrum", sig, "--out-dir", out,
                 "--output", "spec.mdcs"]) == EXIT_OK
    spec = str(tmp_path / "spec.mdcs")
    assert main(["project", spec, "--out-dir", out,
                 "--output", "proj.csv"]) == EXIT_OK
    capsys.readouterr()

    assert main(["fit-width", str(tmp_path / "proj.csv"), "--config", cfg,
                 "--model", "interpolated"]) == EXIT_OK
    assert "fwhm_thz" in capsys.readouterr().out

    assert main(["deconvolve", str(tmp_path / "proj.csv"), "--config", cfg,
                 "--out-dir", out, "--output", "dec.csv"]) == EXIT_OK
    assert (tmp_path / "dec.csv").exists()

    assert main(["lineout", sig, "--out-dir", out,
                 "--output", "diag.csv"]) == EXIT_OK
    capsys.readouterr()
    assert main(["fit-decay", str(tmp_path / "diag.csv")]) == EXIT_OK
    decay_text = capsys.readouterr().out
    assert "T2a_ps" in decay_text and "converged = True" in decay_text


def test_fit_width_lineshape_model(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path)
    assert main(["simulate", "--config", cfg, "--out-dir", out,
                 "--output", "s.mdcs"]) == EXIT_OK
    assert main(["spectrum", str(tmp_path / "s.mdcs"), "--out-dir", out,
                 "--output", "f.mdcs"]) == EXIT_OK
    assert main(["project", str(tmp_path / "f.mdcs"), "--out-dir", out,
                 "--output", "p.csv"]) == EXIT_OK
    capsys.readouterr()
    assert main(["fit-width", str(tmp_path / "p.csv"), "--config", cfg,
                 "--model", "lineshape"]) == EXIT_OK
    assert "fwhm_thz" in capsys.readouterr().out


def test_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path)
    main(["simulate", "--config", cfg, "--out-dir", out, "--output", "a.mdcs"])
    main(["simulate", "--config", cfg, "--out-dir", out, "--output", "b.mdcs"])
    main(["simulate", "--config", cfg, "--out-dir", out, "--output", "c.mdcs",
          "--seed", "99"])
    a = (tmp_path / "a.mdcs").read_bytes()
    assert a == (tmp_path / "b.mdcs").read_bytes()
    assert a != (tmp_path / "c.mdcs").read_bytes()


def test_seed_override_does_not_leak_into_next_call(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    hashes = []
    for extra in ([], ["--seed", "5"], []):
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path),
                     "--verbose", *extra]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        hashes.append(line.split()[-1])
    assert hashes[0] == hashes[2] != hashes[1]


def test_tscan_command(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["tscan", "--config", cfg, "--out-dir", str(tmp_path),
                 "--stop", "1000", "--step", "250",
                 "--output", "scan.csv"]) == EXIT_OK
    capsys.readouterr()
    rows = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(rows) == 6   # header + T = 0..1000 step 250
    amps = [float(r.split(",")[3]) for r in rows[1:]]
    assert amps == sorted(amps, reverse=True)   # T1 decay


def test_demod_command(capsys):
    assert main(["demod", "--amplitude", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "demodulated" in out
    value = float(out.split("|.| = ")[1].rstrip(")\n"))
    assert abs(value - 0.5) <= 0.005


def test_demod_reference_follows_the_config_tags(tmp_path, capsys):
    # nu2 moved by 0.1 MHz puts the rephasing beatnote at 0.121 MHz
    path = tmp_path / "tags.cfg"
    path.write_text(TINY_CONFIG + "\n[tags]\nnu2 = 80.207 mhz\n")
    assert main(["demod", "--config", str(path), "--amplitude", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.split("|.| = ")[1].rstrip(")\n"))
    assert abs(value - 0.5) <= 0.005


def test_demod_rejects_non_positive_bandwidth(capsys, monkeypatch):
    simulated = []
    monkeypatch.setattr("sivmdcs.cli.simulate_pulse_train",
                        lambda *args, **kwargs: simulated.append(args))
    for bandwidth in ("0", "-1", "nan"):
        assert main(["demod", "--bandwidth", bandwidth]) == EXIT_RUNTIME
        assert "bandwidth must be positive" in capsys.readouterr().err
    assert simulated == []          # refused before the record is built


DECAY_CSV = "t_plus_tau (ps),amplitude (arb)\n" + "".join(
    f"{t!r},{math.exp(-t / 30.0)!r}\n" for t in np.linspace(0.0, 100.0, 40).tolist())


@pytest.mark.parametrize("argv", [
    *(["demod", "--duration", value] for value in ("nan", "inf", "-5")),
    *(["demod", "--sample-rate", value] for value in ("nan", "inf")),
    ["demod", "--reference", "nan"],
    *(["demod", "--amplitude", value] for value in ("nan", "inf")),
    *(["tscan", "--step", value] for value in ("0", "nan")),
    ["tscan", "--start", "nan"],
    ["tscan", "--stop", "inf"],
    ["tscan", "--tau", "nan"],
    *(["tscan", "--start", "5", "--stop", "1", *step] for step in ([], ["--step", "1"])),
    ["fit-decay", "--floor", "nan"],
    ["fit-decay", "--t-max", "nan"],
], ids=" ".join)
def test_non_finite_demod_and_tscan_arguments_are_runtime_errors(tmp_path, capsys, argv):
    named = "error:"
    if argv[0] == "tscan":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    if argv[0] == "fit-decay":      # a decay that fits without the option
        decay = tmp_path / "decay.csv"
        decay.write_text(DECAY_CSV)
        assert main(["fit-decay", str(decay)]) == EXIT_OK
        capsys.readouterr()
        argv = ["fit-decay", str(decay), *argv[1:]]
        named = "error: " + argv[2].lstrip("-").replace("-", "_")  # the option
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert named in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor", ["1e300", "1.5"])
def test_a_decay_inside_its_floor_is_refused_without_a_warning(tmp_path, capfd, floor):
    # the largest sample is 1: with 1e300 the floor's square overflowed in the
    # fit, which printed a RuntimeWarning before its error line
    decay = tmp_path / "decay.csv"
    decay.write_text(DECAY_CSV)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit-decay", str(decay), "--floor", floor])
    out, err = capfd.readouterr()
    assert code == EXIT_RUNTIME and not caught
    assert out == "" and err.count("\n") == 1 and err.startswith("error: floor")


# every size is exabytes, so each allocation fails at once: a scan or a
# record past its ceiling is refused before any array is made, numpy's
# MemoryError says "Unable to allocate", and a padded spectrum larger than
# any array is refused before numpy is asked
ALLOCATIONS_THAT_FAIL = {
    "tscan --stop 1e15 --step 1e-3": "exceed the ceiling",     # 10^18 waits
    "demod --duration 1e17": "exceed the ceiling",            # 5 x 10^17 samples
    "spectrum --pad 100000000": "Unable to allocate",          # 1.1 EiB
    "spectrum --pad 1000000000": "too large for an array",
}


@pytest.mark.parametrize("argv", ALLOCATIONS_THAT_FAIL)
def test_an_allocation_that_cannot_be_made_is_a_runtime_error(tmp_path, capsys, argv):
    message = ALLOCATIONS_THAT_FAIL[argv]
    argv = argv.split()
    if argv[0] == "spectrum":             # a 4 x 4 signal, padded to exabytes
        path = tmp_path / "small.mdcs"
        write_dataset(path, signal_to_dataset(TimeDomainSignal(
            np.ones((4, 4), np.complex64), Grid(4, 4, 0.5, 0.5, 406.77), 0.5, "pl")))
        argv = ["spectrum", str(path), *argv[1:]]
    if argv[0] != "demod":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["tscan", "--stop", repr(250.0 * MAX_WAITS)],        # MAX_WAITS + 1 waits
    ["demod", "--duration", repr((MAX_SAMPLES + 1) / 5.0)],   # at 5 MS/s
])
def test_one_wait_or_sample_past_the_ceiling_exits_3_at_once(tmp_path, capsys, argv):
    if argv[0] == "tscan":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "the ceiling of" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_reproduce_t1scan(tmp_path, capsys):
    assert main(["reproduce", "t1scan", "--out-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status = pass" in out
    assert (tmp_path / "t1scan_report.txt").exists()
    assert (tmp_path / "t1scan.csv").exists()


def test_fit_decay_two_components_on_a_single_decay_collapses(tmp_path, capsys):
    assert main(["reproduce", "fig4", "--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["fit-decay", str(tmp_path / "fig4_pl_diagonal.csv"),
                 "--components", "2", "--t-max", "600"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "model = mono-exponential" in out
    assert "warning = degenerate-fit" in out
    t2a = float(out.split("T2a_ps = ")[1].split()[0])
    assert 122 - 7 <= t2a <= 122 + 7


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_RUNTIME}) == 4
