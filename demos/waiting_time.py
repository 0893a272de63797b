"""Scan the waiting time between pulses two and three: the signal stored as
an excited-state population decays with the radiative lifetime T1.

Run:  python3 demos/waiting_time.py
"""
import numpy as np

from sivmdcs import parse_config, waiting_time_scan
from sivmdcs.reproduce import build_ensemble

CONFIG = """
[simulation]
mode = heterodyne
seed = 7
ensemble_size = 50

[component.uniform]
weight = 1.0
strain_shape = delta
strain_fwhm = 0.0
t2 = 122 ps
t1 = 1.7 ns
two_level = true
"""

cfg = parse_config(CONFIG)
ensemble = build_ensemble(cfg)
waits = np.arange(0.0, 4000.1, 250.0)
scan = waiting_time_scan(ensemble, 2.0, 2.0, waits, cfg.mode, cfg.laser)
amps = np.array([abs(a) for _, a in scan])

print(" T (ps)   |signal|")
for T, a in zip(waits, amps / amps[0]):
    print(f"{T:7.0f}   {a:.4f}  " + "#" * int(round(40 * a)))

slope, _ = np.polyfit(waits, np.log(amps), 1)
print(f"\nfitted lifetime: {-1e-3 / slope:.3f} ns (configured 1.7 ns)")
