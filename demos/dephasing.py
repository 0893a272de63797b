"""Extract dephasing times from the photon-echo diagonal of the 2D signal.

The tau = t diagonal decays as exp(-(t + tau)/T2) independently of the
inhomogeneous width, so exponential fits along it read off T2 directly.
A population with two dephasing classes produces a bi-exponential decay.
Only the diagonal is read, so it is synthesized without the 2D grid.

Run:  python3 demos/dephasing.py
"""
from sivmdcs import parse_config
from sivmdcs.fitting import fit_exponential, lorentzian_width_from_t2
from sivmdcs.reproduce import build_ensemble
from sivmdcs.response import synthesize_diagonal
from sivmdcs.spectra import diagonal_decay

MONO = """
[grid]
tau_points = 512
t_points = 512
tau_step = 1.0 ps
t_step = 1.0 ps

[simulation]
mode = pl
noise = 1.0
seed = 7
ensemble_size = 600

[component.bright]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
two_level = true
"""

BI = MONO.replace("mode = pl", "mode = heterodyne") \
         .replace("strain_fwhm = 0.028", "strain_fwhm = 0.2") \
         .replace("t2 = 122 ps", "t2 = 120 ps : 0.7, 990 ps : 0.3")

for label, config, n_comp in (("single class", MONO, 1),
                              ("two classes", BI, 2)):
    cfg = parse_config(config)
    diagonal = synthesize_diagonal(build_ensemble(cfg), cfg.grid, cfg.waiting_time_ps,
                                   cfg.mode, cfg.laser, noise_rms=cfg.noise,
                                   noise_seed=cfg.seed + 1)
    decay = diagonal_decay(diagonal, cfg.grid.tau_step_ps)
    result = fit_exponential(decay, n_comp, floor=1.0)
    print(f"--- {label} ({cfg.mode} detection) ---")
    print(result.as_text())
    for name in result.names:
        if name.startswith("T2"):
            ghz = lorentzian_width_from_t2(result[name])
            print(f"{name} -> homogeneous linewidth {1e3 * ghz:.0f} MHz")
    print()
