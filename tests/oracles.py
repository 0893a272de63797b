"""Independent reference implementations used to validate the package.

Everything here is deliberately brute-force and shares no code with the
library: a phase-cycled two-level density-matrix propagator, a pathway
enumerator driven purely by level connectivity, the dense synthesis sum
with a direct exp at every grid point, ensemble means in closed form or by
Gauss-Hermite quadrature, a waiting-time scan summed one
emitter, one wait and one pathway at a time, direct discrete-Fourier sums,
and finite-difference Jacobians.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


# --- phase-cycled density-matrix propagation --------------------------------

def _pulse(rho, theta, phi):
    """Apply U rho U+ with U = cos(theta) I - i sin(theta)
    (sigma+ e^{-i phi} + sigma- e^{+i phi}), basis order (g, e)."""
    c = math.cos(theta)
    s = math.sin(theta)
    u = np.array([[c, -1j * s * np.exp(1j * phi)],
                  [-1j * s * np.exp(-1j * phi), c]])
    return u @ rho @ u.conj().T


def _evolve(rho, dt_ps, detuning_thz, t2_ps, t1_ps):
    """Free evolution: rho_ge gains e^{(+2 pi i d - 1/T2) dt}, the excited
    population relaxes to the ground state with T1."""
    decay = math.exp(-dt_ps / t1_ps)
    phase = np.exp((2j * np.pi * detuning_thz - 1.0 / t2_ps) * dt_ps)
    out = rho.copy()
    out[1, 1] = rho[1, 1] * decay
    out[0, 0] = rho[0, 0] + rho[1, 1] * (1.0 - decay)
    out[0, 1] = rho[0, 1] * phase
    out[1, 0] = rho[1, 0] * np.conj(phase)
    return out


def _cycled_emission(detuning_thz, t2_ps, t1_ps, tau_ps, wait_ps, t_ps, theta):
    """Emission coherence rho_eg after three pulses, phase-cycled (4 steps
    per pulse) to isolate the harmonic e^{+i(phi1 - phi2 - phi3)}."""
    total = 0.0 + 0.0j
    steps = [k * math.pi / 2.0 for k in range(4)]
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for p1, p2, p3 in itertools.product(steps, repeat=3):
        rho = _pulse(rho0, theta, p1)
        rho = _evolve(rho, tau_ps, detuning_thz, t2_ps, t1_ps)
        rho = _pulse(rho, theta, p2)
        rho = _evolve(rho, wait_ps, detuning_thz, t2_ps, t1_ps)
        rho = _pulse(rho, theta, p3)
        rho = _evolve(rho, t_ps, detuning_thz, t2_ps, t1_ps)
        total += rho[1, 0] * np.exp(-1j * (p1 - p2 - p3))
    return total / 64.0


def rephasing_response_oracle(detuning_thz, t2_ps, t1_ps, tau_ps, wait_ps,
                              t_ps, theta=0.02):
    """Third-order rephasing response of one two-level emitter.

    The perturbative amplitude is the isolated harmonic divided by
    i theta^3; a Richardson step in theta removes the leading theta^2
    correction, leaving a relative error of order theta^4.
    """
    def order3(th):
        return _cycled_emission(detuning_thz, t2_ps, t1_ps, tau_ps, wait_ps,
                                t_ps, th) / (1j * th ** 3)

    return (4.0 * order3(theta / 2.0) - order3(theta)) / 3.0


def rephasing_response_model(detuning_thz, t2_ps, t1_ps, tau_ps, wait_ps, t_ps):
    """Closed-form two-level rephasing term the simulator is built on
    (one bleach plus one stimulated-emission pathway, unit dipole)."""
    return 2.0 * math.exp(-wait_ps / t1_ps) \
        * np.exp((2j * np.pi * detuning_thz - 1.0 / t2_ps) * tau_ps) \
        * np.exp((-2j * np.pi * detuning_thz - 1.0 / t2_ps) * t_ps)



def gaussian_ensemble_response(nu0_thz, sigma_thz, t2_ps, t1_ps, tau_ps,
                               wait_ps, t_ps):
    """Mean heterodyne rephasing response per emitter of a two-level
    ensemble with Gaussian detunings N(nu0, sigma^2), constant T2 and no
    laser filter.  Averaging exp(2 pi i d (tau - t)) over the detunings
    gives the Gaussian's characteristic function: the photon echo,
    exp(-2 pi^2 sigma^2 (tau - t)^2), centred on the diagonal."""
    lag = tau_ps - t_ps
    return 2.0 * math.exp(-wait_ps / t1_ps) * math.exp(-(tau_ps + t_ps) / t2_ps) \
        * np.exp(TWO_PI * 1j * nu0_thz * lag
                 - 2.0 * math.pi ** 2 * sigma_thz ** 2 * lag ** 2)


def lognormal_t2_diagonal_moments(median_t2, log_sigma, t1, tau_ps, wait_ps,
                                  nodes=64):
    """Mean and standard deviation per emitter of the heterodyne diagonal
    S(tau, tau) of a two-level ensemble with T2 = median * exp(log_sigma Z),
    Z standard normal, and no laser filter: each emitter gives
    f = 2 exp(-T/T1) exp(-2 tau/T2), its detuning cancelling on the diagonal,
    and E[f], E[f^2] are Gauss-Hermite sums over Z = sqrt(2) x."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    t2 = median_t2 * np.exp(log_sigma * math.sqrt(2.0) * x)
    f = 2.0 * math.exp(-wait_ps / t1) * np.exp(-2.0 * tau_ps / t2)
    mean = float(np.sum(w * f) / math.sqrt(math.pi))
    square = float(np.sum(w * f * f) / math.sqrt(math.pi))
    return mean, math.sqrt(max(square - mean * mean, 0.0))


def exact_dense_sum(nu_exc, nu_emit, weight, t2, tau_ps, t_ps):
    """The rephasing double sum over (tau, t) with a direct complex exp for
    every term at every grid point, summed in chunks of 256 terms."""
    chunk = 256
    z_exc = 2j * np.pi * nu_exc - 1.0 / t2
    z_emit = -2j * np.pi * nu_emit - 1.0 / t2
    data = np.zeros((len(tau_ps), len(t_ps)), dtype=complex)
    for lo in range(0, len(weight), chunk):
        u = np.exp(np.outer(z_exc[lo:lo + chunk], tau_ps))
        u *= weight[lo:lo + chunk, None]
        data += u.T @ np.exp(np.outer(z_emit[lo:lo + chunk], t_ps))
    return data

# --- pathway enumeration from level connectivity ----------------------------

def enumerate_pathways_oracle(levels):
    """Rephasing (kind, excitation, emission) triples from connectivity.

    Rules: the second interaction must close onto a population, and the
    final emission must return the bra to the starting ground sublevel.
    Stimulated emission therefore reuses the excitation transition; bleach
    pathways emit on any transition sharing the starting ground sublevel.
    """
    triples = []
    for i, (gi, _ei) in enumerate(levels):
        triples.append(("se", i, i))
        for j, (gj, _ej) in enumerate(levels):
            if gj == gi:
                triples.append(("gsb", i, j))
    return triples


# (ground, excited) sublevels of the four lines in ascending frequency, the
# column order of an ensemble's lines; a two-level emitter has one line
FOUR_LINE_LEVELS = ((1, 0), (0, 0), (1, 1), (0, 1))
TWO_LEVEL_LEVELS = ((0, 0),)


def direct_waiting_time_scan(ensemble, tau0_ps, t0_ps, waits_ps, mode,
                             laser=None, frame_thz=406.770):
    """Pathway-sum amplitude at (tau0, t0) for each waiting time, one wait,
    one emitter and one pathway at a time: every pathway of the emitter's
    level connectivity (GSB and SE apart) with its own complex exp, its
    weight the detection factor, mu^4, exp(-T/T1) and the unit-peak Gaussian
    laser weight of both lines."""
    sigma = None if laser is None else \
        laser.fwhm_thz / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    def filt(nu):
        return 1.0 if laser is None else \
            math.exp(-0.5 * ((nu - laser.center_thz) / sigma) ** 2)

    pathways = {False: enumerate_pathways_oracle(FOUR_LINE_LEVELS),
                True: enumerate_pathways_oracle(TWO_LEVEL_LEVELS)}
    amplitudes = []
    for wait in waits_ps:
        total = 0.0 + 0.0j
        for i in range(len(ensemble)):
            lines = [float(nu) for nu in ensemble.lines_thz[i]]
            decay = 1.0 / float(ensemble.t2_ps[i])
            weight = (float(ensemble.quantum_yield[i]) if mode == "pl" else 1.0) \
                * float(ensemble.dipole[i]) ** 4 * math.exp(-wait / float(ensemble.t1_ps[i]))
            for _, exc, emit in pathways[bool(ensemble.two_level[i])]:
                phase = TWO_PI * ((lines[exc] - frame_thz) * tau0_ps
                                  - (lines[emit] - frame_thz) * t0_ps)
                total += weight * filt(lines[exc]) * filt(lines[emit]) \
                    * cmath.exp(complex(-decay * (tau0_ps + t0_ps), phase))
        amplitudes.append(total)
    return amplitudes


# --- direct discrete-Fourier sums -------------------------------------------

def direct_spectrum_oracle(data, tau_step_ps, t_step_ps, nu_tau_thz, nu_t_thz,
                           frame_thz):
    """O(N^2 M^2) evaluation of the 2D transform on the given output axes.

    The tau axis uses the forward kernel e^{-2 pi i f m dtau} evaluated at
    f = -nu_tau - frame (the axis is the negated absolute frequency); the
    t axis uses the conjugate kernel e^{+2 pi i f n dt} at f = nu_t - frame.
    """
    m = np.arange(data.shape[0]) * tau_step_ps
    n = np.arange(data.shape[1]) * t_step_ps
    f_tau = -np.asarray(nu_tau_thz) - frame_thz
    f_t = np.asarray(nu_t_thz) - frame_thz
    k_tau = np.exp(-2j * np.pi * np.outer(f_tau, m))
    k_t = np.exp(2j * np.pi * np.outer(n, f_t))
    return k_tau @ data @ k_t


def five_step_transform(data, pad_factor=1):
    """The 2D transform matrix of ``spectra.to_spectrum`` in its plain
    five-step form: tau-axis fft, t-axis ifft scaled by n_t, fftshift of
    both axes, then the row reversal that sorts the negated tau axis.  It
    makes the same numpy calls on the same dtypes, so the bits must agree."""
    n_tau, n_t = data.shape[0] * pad_factor, data.shape[1] * pad_factor
    f = np.fft.fft(data, n=n_tau, axis=0)
    f = np.fft.ifft(f, n=n_t, axis=1) * n_t
    f = np.fft.fftshift(f, axes=(0, 1))
    return f[::-1, :]


# --- finite-difference Jacobians --------------------------------------------

def jacobian_fd_error(model_fn, jac_fn, x, params, rel_step=1e-6):
    """Max deviation between the analytic Jacobian and central differences,
    normalized by the largest Jacobian entry."""
    params = np.asarray(params, dtype=float)
    analytic = np.asarray(jac_fn(x, params))
    numeric = np.empty_like(analytic)
    for k in range(len(params)):
        h = rel_step * max(abs(params[k]), 1.0)
        hi = params.copy()
        lo = params.copy()
        hi[k] += h
        lo[k] -= h
        numeric[:, k] = (np.asarray(model_fn(x, hi)) - np.asarray(model_fn(x, lo))) / (2.0 * h)
    scale = max(np.abs(analytic).max(), 1e-300)
    return float(np.abs(analytic - numeric).max() / scale)
