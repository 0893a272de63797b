"""Measure the inhomogeneous width of a strain-broadened population two
ways: deconvolve the excitation spectrum from the projection, or fit the
raw projection with the bandwidth-filtered lineshape model.

Run:  python3 demos/hidden_population.py
"""
from sivmdcs import parse_config
from sivmdcs.fitting import fit_finite_bandwidth, fwhm
from sivmdcs.reproduce import run_simulation
from sivmdcs.spectra import deconvolve_laser, project_nu_t, to_spectrum

CONFIG = """
[laser]
center = 406.770 thz
fwhm = 4.14 thz

[grid]
tau_points = 128
t_points = 4096
tau_step = 0.125 ps
t_step = 0.125 ps

[simulation]
mode = heterodyne
seed = 11
ensemble_size = 8000

[component.hidden]
weight = 1.0
strain_shape = gaussian
strain_fwhm = 1.84
t2 = 990 ps
two_level = true
"""

cfg = parse_config(CONFIG)
signal = run_simulation(cfg)
projection = project_nu_t(to_spectrum(signal))

center = cfg.scheme.center_thz
window = lambda trace: trace.rebinned(8).window(center, 1.1)

# route A: divide out the squared laser spectrum, then fit a Gaussian
deconvolved = deconvolve_laser(projection, cfg.laser, floor=0.05)
w_dec, u_dec = fwhm(window(deconvolved), model="gaussian", background=True)
print(f"deconvolved-projection width: {w_dec:.3f} +- {u_dec:.3f} THz")

# route B: fit the raw projection with G(nu) * L(nu)^2 directly
fit = fit_finite_bandwidth(window(projection), cfg.laser, background=True)
print(f"lineshape-fit width:          {fit.extras['fwhm_thz']:.3f} "
      f"+- {fit.extras['fwhm_sigma_thz']:.3f} THz")
print(f"underlying distribution:      1.840 THz")
