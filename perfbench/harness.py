"""Timing loop, set-up measurement and the result line.

A run repeats whole rounds of a workload's items while the next round is
expected to end within ``seconds`` of timed work, and does at least two
rounds.  Only the program calls in ``run_item`` are timed; checks run
between items.  The host's speed drifts by up to +-20 % in phases of
10-30 s, so per-round times are averaged over the whole run and set-up is
timed in fresh processes started between rounds.  The untraced run reports
the end-to-end metrics.  The traced run alternates untraced and traced
rounds, so tracing overhead is measured in the same process, and reports
per-layer self time, span counts and counters per traced round.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from . import spans
from .workloads import WORKLOADS, Tally

SETUP_SAMPLES = 7

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "item_p50_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {f"reproduce.{t}_s": "s" for t in WORKLOADS["figures"].TARGETS}
    for layer in spans.LAYERS:
        time_metric, span_metric = spans.layer_metrics(layer)
        units[time_metric] = "ms"
        units[span_metric] = "count"
    units.update(spans.COUNTERS)
    units.update({"trace.traced_ms": "ms", "trace.untraced_ms": "ms",
                  "trace.overhead_ms": "ms"})
    return units


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def _out_root(root: str) -> str:
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path


def setup_only(root: str, workload: str, seed: int) -> None:
    """Do the workload's set-up, print the monotonic clock, clean up."""
    run_dir = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=_out_root(root))
    try:
        WORKLOADS[workload](seed, run_dir)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(run_dir)


def setup_seconds(script: str, workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter to the end of the workload's
    set-up."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, script, "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


class Run:
    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.tally = Tally()
        self.items_s: list[float] = []
        self.rounds: list[tuple[float, float, bool]] = []   # wall, cpu, traced
        self.k = 0

    def round(self, tracer=None) -> None:
        wall = cpu = 0.0
        for _ in range(self.wl.items_per_round):
            if tracer is not None:
                tracer.item = self.k
                tracer.begin(spans.ROOT)
            w0, c0 = time.perf_counter(), time.process_time()
            outputs = self.wl.run_item(self.k)
            w, c = time.perf_counter() - w0, time.process_time() - c0
            if tracer is not None:
                tracer.end()
            got = self.wl.check(self.k, outputs)
            self.tally.attempted += got.attempted
            self.tally.failed += got.failed
            self.tally.problems += got.problems
            self.k += 1
            self.items_s.append(w)
            wall, cpu = wall + w, cpu + c
        self.rounds.append((wall, cpu, tracer is not None))

    def spent(self) -> float:
        return sum(wall for wall, _, _ in self.rounds)

    def another(self) -> bool:
        """Whether to start another round: at least two, then only while a
        round of average length still ends within the run's seconds."""
        n = len(self.rounds)
        return n < 2 or self.spent() * (n + 1) / n <= self.seconds


def run(root: str, script: str, workload: str, seed: int, seconds: float,
        traced: bool) -> dict:
    cls = WORKLOADS[workload]
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=_out_root(root))
    try:
        r = Run(cls(seed, run_dir), seconds)
        if traced:
            metrics = _traced(r, root, workload, seed)
        else:
            # Set-up is timed in fresh processes spread over the run, so that
            # its median sees the same drift phases as the rounds.
            setups = []
            while r.another():
                r.round()
                if r.spent() >= len(setups) * seconds / SETUP_SAMPLES:
                    setups.append(setup_seconds(script, workload, seed))
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_seconds(script, workload, seed))
            metrics = _end_to_end(r, statistics.median(setups))
    finally:
        shutil.rmtree(run_dir)
    for problem in r.tally.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload}: {len(r.rounds)} rounds, {len(r.items_s)} items, "
          f"{r.tally.attempted} operations, {r.tally.failed} failed",
          file=sys.stderr)
    return {"correct": not r.tally.problems, "attempted": r.tally.attempted,
            "failed": r.tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _end_to_end(r: Run, setup_s: float) -> dict:
    values = {
        "wall_s": statistics.mean(wall for wall, _, _ in r.rounds),
        "cpu_s": statistics.mean(cpu for _, cpu, _ in r.rounds),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_p50_ms": 1e3 * statistics.median(r.items_s),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _traced(r: Run, root: str, workload: str, seed: int) -> dict:
    tracer = spans.Tracer()
    while len(r.rounds) % 2 or r.another():
        if len(r.rounds) % 2:
            tracer.install()
            try:
                r.round(tracer)
            finally:
                tracer.uninstall()
        else:
            r.round()
    missing = tracer.missing_layers(r.wl.required_layers)
    if missing:
        raise BenchmarkError(
            f"{workload}: no span recorded for layer(s) {', '.join(missing)}; "
            "a name the benchmark wraps was probably renamed or rebound")
    traced = [wall for wall, _, t in r.rounds if t]
    untraced = [wall for wall, _, t in r.rounds if not t]
    self_total = sum(tracer.self_s.values())
    if abs(self_total - sum(traced)) > 0.01 * sum(traced):
        raise BenchmarkError(f"span self times sum to {self_total:.4f} s but traced "
                             f"items took {sum(traced):.4f} s")
    n = len(traced)
    values = {}
    for layer in spans.LAYERS:
        time_metric, span_metric = spans.layer_metrics(layer)
        values[time_metric] = 1e3 * tracer.self_s[layer] / n
        values[span_metric] = tracer.spans[layer] / n
    units = per_layer_units()
    for name in units:
        if name not in values and not name.startswith("trace."):
            values[name] = tracer.counts[name] / n
    values["trace.traced_ms"] = 1e3 * statistics.mean(traced)
    values["trace.untraced_ms"] = 1e3 * statistics.mean(untraced)
    values["trace.overhead_ms"] = values["trace.traced_ms"] - values["trace.untraced_ms"]
    dump = os.path.join(_out_root(root), f"trace-{workload}-seed{seed}.json")
    with open(dump, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "traced_rounds": n,
                   "spans": tracer.dump()}, fh)
    return {name: (values[name], unit) for name, unit in units.items()}
