"""Simulate a photoluminescence-detected 2D spectrum of the bright
population and locate its four diagonal peaks and ground-state cross peaks.

Run:  python3 demos/peak_map.py
"""
import numpy as np

from sivmdcs import parse_config
from sivmdcs.reproduce import run_simulation
from sivmdcs.spectra import to_spectrum

CONFIG = """
[grid]
tau_points = 512
t_points = 512
tau_step = 1.171875 ps
t_step = 1.171875 ps

[simulation]
mode = pl
seed = 7
ensemble_size = 800

[component.bright]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
"""

cfg = parse_config(CONFIG)
signal = run_simulation(cfg)
spectrum = to_spectrum(signal)
amp = np.abs(spectrum.data)

lines = cfg.scheme.transition_frequencies()
levels = cfg.scheme.transition_levels()
print("transition lines (THz):", np.round(lines, 4))

# amplitude in a +-10 GHz box around every (excitation, emission) pair
print("\npeak amplitudes, rows = excitation line, cols = emission line")
table = np.zeros((4, 4))
for i in range(4):
    rows = np.abs(spectrum.nu_tau_thz + lines[i]) <= 0.010
    for j in range(4):
        cols = np.abs(spectrum.nu_t_thz - lines[j]) <= 0.010
        table[i, j] = amp[np.ix_(rows, cols)].max()
with np.printoptions(precision=1, suppress=True):
    print(table)

print("\nshared-ground pairs light up off the diagonal; the outer/inner "
      "combinations that share no sublevel stay dark:")
for i in range(4):
    for j in range(4):
        if i == j:
            continue
        tag = "shared ground" if levels[i][0] == levels[j][0] else "no shared level"
        print(f"  excite line {i}, emit line {j}: {table[i, j]:8.1f}  ({tag})")
