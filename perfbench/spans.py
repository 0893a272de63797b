"""Spans recorded from the benchmark's side of each call into the program.

``Tracer.install`` replaces the functions that a calling module has bound
(``sivmdcs.reproduce.synthesize_signal``, ``sivmdcs.cli.to_spectrum``, the
benchmark's own imports, ...) by wrappers that open a span, and
``uninstall`` puts the originals back.  A binding that no longer exists is
skipped; ``missing_layers`` then names each layer a workload must call but
that recorded no span, so a refactor that rebinds a name shows up as a loud
failure instead of a silent zero.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _size_of_first_arg(counter):
    def count(tracer, args, kwargs, result, seconds):
        tracer.counts[counter] += os.path.getsize(args[0])
    return count


def _fit_iterations(tracer, args, kwargs, result, seconds):
    tracer.counts["fitting.iterations"] += getattr(result, "n_iter", 0)


def _emitters(tracer, args, kwargs, result, seconds):
    tracer.counts["emitter.emitters"] += args[3] if len(args) > 3 else kwargs["n"]


def _target_seconds(tracer, args, kwargs, result, seconds):
    target = args[0] if args else kwargs["target"]
    tracer.counts[f"reproduce.{target}_s"] += seconds


_DATASET_BYTES = _size_of_first_arg("dataset.bytes")
_CSV_BYTES = _size_of_first_arg("io_utils.csv_bytes")

# (calling module, bound name, layer, counter)
_PROGRAM = [
    ("sivmdcs.reproduce", "parse_config", "config.parse", None),
    ("sivmdcs.reproduce", "sample_ensemble", "emitter.sample", _emitters),
    ("sivmdcs.reproduce", "synthesize_signal", "response.synthesize", None),
    ("sivmdcs.reproduce", "waiting_time_scan", "response.tscan", None),
    ("sivmdcs.reproduce", "to_spectrum", "spectra.transform", None),
    ("sivmdcs.reproduce", "project_nu_t", "spectra.traces", None),
    ("sivmdcs.reproduce", "diagonal_lineout", "spectra.traces", None),
    ("sivmdcs.reproduce", "deconvolve_laser", "spectra.traces", None),
    ("sivmdcs.reproduce", "fit_exponential", "fitting.fit", _fit_iterations),
    ("sivmdcs.reproduce", "fit_finite_bandwidth", "fitting.fit", _fit_iterations),
    ("sivmdcs.reproduce", "fwhm", "fitting.fit", None),
    ("sivmdcs.reproduce", "write_dataset", "dataset.write", _DATASET_BYTES),
    ("sivmdcs.reproduce", "write_trace_csv", "io_utils.csv_write", _CSV_BYTES),
    ("sivmdcs.reproduce", "write_decay_csv", "io_utils.csv_write", _CSV_BYTES),
    ("sivmdcs.reproduce", "write_tscan_csv", "io_utils.csv_write", _CSV_BYTES),
    ("sivmdcs.cli", "parse_config", "config.parse", None),
    ("sivmdcs.cli", "to_spectrum", "spectra.transform", None),
    ("sivmdcs.cli", "project_nu_t", "spectra.traces", None),
    ("sivmdcs.cli", "diagonal_lineout", "spectra.traces", None),
    ("sivmdcs.cli", "deconvolve_laser", "spectra.traces", None),
    ("sivmdcs.cli", "fit_exponential", "fitting.fit", _fit_iterations),
    ("sivmdcs.cli", "fit_finite_bandwidth", "fitting.fit", _fit_iterations),
    ("sivmdcs.cli", "fwhm", "fitting.fit", None),
    ("sivmdcs.cli", "read_dataset", "dataset.read", _DATASET_BYTES),
    ("sivmdcs.cli", "write_dataset", "dataset.write", _DATASET_BYTES),
    ("sivmdcs.cli", "read_trace_csv", "io_utils.csv_read", _CSV_BYTES),
    ("sivmdcs.cli", "read_decay_csv", "io_utils.csv_read", _CSV_BYTES),
    ("sivmdcs.cli", "write_trace_csv", "io_utils.csv_write", _CSV_BYTES),
    ("sivmdcs.cli", "write_decay_csv", "io_utils.csv_write", _CSV_BYTES),
    ("sivmdcs.cli", "simulate_pulse_train", "pulsetrain.demod", None),
    ("sivmdcs.cli", "demodulate", "pulsetrain.demod", None),
    # the benchmark's own calls into the program
    ("perfbench.workloads", "run_reproduction", "reproduce", _target_seconds),
    ("perfbench.workloads", "main", "cli", None),
    ("perfbench.workloads", "parse_config", "config.parse", None),
    ("perfbench.workloads", "synthesize_signal", "response.synthesize", None),
    ("perfbench.workloads", "waiting_time_scan", "response.tscan", None),
]

# Root span around each timed item; its self time is the benchmark's own
# code between the calls above.
ROOT = "bench"

# layer -> (self-time metric, span-count metric)
LAYER_METRICS = {
    "reproduce": ("reproduce.self_ms", "reproduce.spans"),
    "cli": ("cli.self_ms", "cli.spans"),
    ROOT: ("bench.self_ms", "bench.spans"),
}


def layer_metrics(layer: str) -> tuple[str, str]:
    return LAYER_METRICS.get(layer, (f"{layer}_ms", f"{layer}_spans"))


LAYERS = [ROOT] + list(dict.fromkeys(layer for _, _, layer, _ in _PROGRAM))
COUNTERS = {"emitter.emitters": "count", "fitting.iterations": "count",
            "dataset.bytes": "bytes", "io_utils.csv_bytes": "bytes"}


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.spans = defaultdict(int)
        self.counts = defaultdict(float)
        self.records = []          # (id, parent id, item, layer, start, end)
        self.item = -1
        self._open = []            # [id, layer, start, seconds in children]
        self._saved = []

    def begin(self, layer):
        self._open.append([len(self.records) + len(self._open), layer,
                           time.perf_counter(), 0.0])

    def end(self):
        stop = time.perf_counter()
        span_id, layer, start, children = self._open.pop()
        seconds = stop - start
        self.self_s[layer] += seconds - children
        self.spans[layer] += 1
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += seconds
        self.records.append((span_id, parent[0] if parent else None,
                             self.item, layer, start, stop))
        return seconds

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.end()
            if counter is not None:
                counter(self, args, kwargs, result, seconds)
            return result
        return traced

    def install(self):
        for module_name, name, layer, counter in _PROGRAM:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                continue
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, layer, counter))

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def missing_layers(self, required) -> list[str]:
        return [layer for layer in required if self.spans[layer] == 0]

    def dump(self) -> list[dict]:
        return [{"id": i, "parent": p, "item": item, "layer": layer,
                 "start_s": start, "end_s": stop}
                for i, p, item, layer, start, stop in self.records]
