"""Command-line interface.

Exit codes: 0 success, 1 a requested check failed, 2 usage error,
3 runtime or data error, also before any array is made for more than
``MAX_WAITS`` waits in ``tscan`` or ``pulsetrain.MAX_SAMPLES`` in ``demod``.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import config_hash, parse_config
from .errors import InvalidSpec, SivMdcsError
from .fitting import fit_exponential, fit_finite_bandwidth, fwhm
from .io_utils import (dataset_to_signal, dataset_to_spectrum, read_decay_csv,
                       read_text, read_trace_csv, signal_to_dataset,
                       spectrum_to_dataset, write_decay_csv, write_trace_csv,
                       write_tscan_csv)
from .dataset import read_dataset, write_dataset
from .pathways import REPHASING_SIGNATURE, rephasing_frequency
from .pulsetrain import bandwidth_mhz, demodulate, simulate_pulse_train
from .reproduce import (DEFAULT_CONFIGS, TARGETS, build_ensemble,
                        run_reproduction, run_simulation)
from .response import DETECTION_MODES, waiting_time_scan
from .spectra import deconvolve_laser, diagonal_lineout, project_nu_t, to_spectrum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
MAX_WAITS = 1_000_000


def _load_config(path, seed=None):
    """The config at ``path`` (else fig1c's), with ``seed``, if given."""
    cfg = parse_config(read_text(path) if path else DEFAULT_CONFIGS["fig1c"])
    return cfg if seed is None else replace(cfg, seed=seed)


def _write(args, name, write, obj):
    """Write ``obj`` with ``write`` to ``--output`` (else ``name``) in
    ``--out-dir``, and report the path."""
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, args.output or name)
    write(path, obj)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args):
    cfg = _load_config(args.config, args.seed)
    signal = run_simulation(cfg, mode=args.mode)
    if args.verbose:
        print(f"config sha256 {config_hash(cfg)}")
    return _write(args, f"{cfg.basename}_signal.mdcs", write_dataset,
                  signal_to_dataset(signal))


def _cmd_spectrum(args):
    signal = dataset_to_signal(read_dataset(args.input))
    # the signal is this command's own read buffer: at pad 1, transform in it
    spectrum = to_spectrum(signal, pad_factor=args.pad, overwrite=True)
    return _write(args, "spectrum.mdcs", write_dataset, spectrum_to_dataset(spectrum))


def _cmd_project(args):
    spectrum = dataset_to_spectrum(read_dataset(args.input))
    return _write(args, "projection.csv", write_trace_csv, project_nu_t(spectrum))


def _cmd_deconvolve(args):
    cfg = _load_config(args.config)
    trace = read_trace_csv(args.input)
    out = deconvolve_laser(trace, cfg.laser, floor=args.floor)
    return _write(args, "deconvolved.csv", write_trace_csv, out)


def _cmd_lineout(args):
    signal = dataset_to_signal(read_dataset(args.input))
    return _write(args, "diagonal.csv", write_decay_csv, diagonal_lineout(signal))


def _cmd_fit_decay(args):
    decay = read_decay_csv(args.input)
    if args.t_max is not None:
        decay = decay.truncated(args.t_max)
    print(fit_exponential(decay, args.components, floor=args.floor).as_text())
    return EXIT_OK


def _cmd_fit_width(args):
    cfg = _load_config(args.config)
    trace = read_trace_csv(args.input)
    if args.model == "lineshape":
        result = fit_finite_bandwidth(trace, cfg.laser)
        print(result.as_text())
        print(f"fwhm_thz = {result.extras['fwhm_thz']:.6g} "
              f"+- {result.extras['fwhm_sigma_thz']:.2g}")
        return EXIT_OK
    width, sigma = fwhm(trace, model=args.model)
    print(f"fwhm_thz = {width:.6g} +- {sigma:.2g}")
    return EXIT_OK


def _cmd_tscan(args):
    cfg = _load_config(args.config, args.seed)
    if not (math.isfinite(args.step) and args.step > 0):
        raise InvalidSpec(f"waiting-time step must be positive, got {args.step} ps")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise InvalidSpec(f"waiting-time range {args.start}..{args.stop} ps must be finite")
    if args.stop < args.start:
        raise InvalidSpec(f"waiting-time range {args.start}..{args.stop} ps is reversed")
    stop = args.stop + 0.5 * args.step
    if not (stop - args.start) / args.step <= MAX_WAITS:
        raise InvalidSpec(f"the waits exceed the ceiling of {MAX_WAITS} waits")
    ensemble = build_ensemble(cfg)
    waits = np.arange(args.start, stop, args.step)
    scan = waiting_time_scan(ensemble, args.tau, args.t, waits, cfg.mode,
                             cfg.laser, cfg.grid.frame_thz)
    return _write(args, "tscan.csv", write_tscan_csv, scan)


def _cmd_demod(args):
    cfg = _load_config(args.config)
    bandwidth_mhz(args.bandwidth)           # refuse it before building the record
    amplitudes = {REPHASING_SIGNATURE: complex(args.amplitude)}
    record = simulate_pulse_train(amplitudes, cfg.tags, args.duration,
                                  args.sample_rate)
    reference = (rephasing_frequency(cfg.tags) if args.reference is None
                 else args.reference)
    value = demodulate(record, reference, bandwidth_khz=args.bandwidth)
    print(f"demodulated = {value.real:.6g}{value.imag:+.6g}j "
          f"(|.| = {abs(value):.6g})")
    return EXIT_OK


def _cmd_reproduce(args):
    config_text = read_text(args.config) if args.config else None
    report = run_reproduction(args.target, config_text, args.out_dir, args.seed)
    print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sivmdcs",
        description="Simulate and analyze collinear 2D coherent spectra of "
                    "color-center ensembles.")
    parser.add_argument("--version", action="version",
                        version=f"sivmdcs {__version__}")
    # one parent parser per shared option, so that each command declares
    # only the options it reads
    config, seed, out_dir, output, verbose = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    config.add_argument("--config", help="experiment configuration file")
    seed.add_argument("--seed", type=int, default=None,
                      help="override the configured random seed")
    out_dir.add_argument("--out-dir", default=".", help="output directory")
    output.add_argument("--output", help="output file name in --out-dir")
    verbose.add_argument("--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       parents=[config, seed, out_dir, output, verbose],
                       help="synthesize a time-domain 2D signal")
    p.add_argument("--mode", choices=DETECTION_MODES, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("spectrum", parents=[out_dir, output],
                       help="Fourier-transform a signal dataset")
    p.add_argument("input")
    p.add_argument("--pad", type=int, default=1)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("project", parents=[out_dir, output],
                       help="project a 2D spectrum onto the emission axis")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("deconvolve", parents=[config, out_dir, output],
                       help="remove the excitation bandwidth from a projection")
    p.add_argument("input")
    p.add_argument("--floor", type=float, default=0.05)
    p.set_defaults(fn=_cmd_deconvolve)

    p = sub.add_parser("lineout", parents=[out_dir, output],
                       help="extract the tau = t diagonal decay")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_lineout)

    p = sub.add_parser("fit-decay",
                       help="fit exponentials to a diagonal decay CSV")
    p.add_argument("input")
    p.add_argument("--components", type=int, choices=(1, 2), default=1)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=None)
    p.set_defaults(fn=_cmd_fit_decay)

    p = sub.add_parser("fit-width", parents=[config],
                       help="measure a linewidth from a projection CSV")
    p.add_argument("input")
    p.add_argument("--model", default="gaussian",
                   choices=("interpolated", "gaussian", "lorentzian",
                            "lineshape"))
    p.set_defaults(fn=_cmd_fit_width)

    p = sub.add_parser("tscan", parents=[config, seed, out_dir, output],
                       help="scan the waiting time at fixed tau and t")
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=4000.0)
    p.add_argument("--step", type=float, default=250.0)
    p.set_defaults(fn=_cmd_tscan)

    p = sub.add_parser("demod", parents=[config],
                       help="simulate lock-in demodulation of a tagged train")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=20000.0,
                   help="record length in microseconds")
    p.add_argument("--sample-rate", type=float, default=5.0,
                   help="samples per microsecond")
    p.add_argument("--reference", type=float, default=None,
                   help="demodulation frequency in MHz (default: the "
                        "rephasing beatnote of the config's tags)")
    p.add_argument("--bandwidth", type=float, default=1.0,
                   help="detection bandwidth in kHz")
    p.set_defaults(fn=_cmd_demod)

    p = sub.add_parser("reproduce", parents=[config, seed, out_dir],
                       help="run a complete reproduction target")
    p.add_argument("target", choices=TARGETS)
    p.set_defaults(fn=_cmd_reproduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (SivMdcsError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
