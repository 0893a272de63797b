"""Reference values the benchmark checks the program against.

Nothing here imports the program.  The model is restated from its
documentation: a doublet-doublet level scheme gives four lines; every
rephasing pathway has sign +1, with a ground-state bleach and a stimulated
emission on each line and a bleach cross peak between lines that share a
ground sublevel; a two-level emitter has one bleach and one emission
pathway.  A pathway's weight at tau = t = 0 is
``w_det * exp(-T/T1) * L(nu_exc) * L(nu_emit)``, with L the unit-peak
Gaussian laser weight and ``w_det`` 1 in heterodyne and the strain-dependent
quantum yield in PL detection.  Strain s shifts every line by s THz.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class Component:
    weight: float
    strain_fwhm_thz: float
    two_level: bool
    t1_ps: float


@dataclass(frozen=True)
class Model:
    center_thz: float
    ground_splitting_ghz: float
    excited_splitting_ghz: float
    laser_center_thz: float
    laser_fwhm_thz: float
    yield_crossover: float
    yield_steepness: float
    waiting_time_ps: float
    components: tuple[Component, ...]


def gaussian_product_mean(offsets, sigma_s: float, sigma_l: float) -> float:
    """E over s ~ N(0, sigma_s^2) of prod_k exp(-(a_k + s)^2 / (2 sigma_l^2)).

    The exponent is -A s^2 + B s - C, so the Gaussian integral gives
    exp(B^2 / 4A - C) / sqrt(2 sigma_s^2 A).
    """
    a = np.asarray(offsets, dtype=float)
    big_a = 1.0 / (2.0 * sigma_s ** 2) + len(a) / (2.0 * sigma_l ** 2)
    big_b = -a.sum() / sigma_l ** 2
    big_c = (a ** 2).sum() / (2.0 * sigma_l ** 2)
    return math.exp(big_b ** 2 / (4.0 * big_a) - big_c) \
        / math.sqrt(2.0 * sigma_s ** 2 * big_a)


def pathway_offsets(model: Model, comp: Component):
    """(multiplicity, excitation, emission) line offsets from the laser
    centre, in THz, for an unstrained emitter of ``comp``."""
    base = model.center_thz - model.laser_center_thz
    if comp.two_level:
        return [(2, base, base)]
    dg = 1e-3 * model.ground_splitting_ghz
    de = 1e-3 * model.excited_splitting_ghz
    # line frequency = E(excited e) - E(ground g), sublevels at -+ half splitting
    lines = [(g, base + (e - 0.5) * de - (g - 0.5) * dg)
             for e in (0, 1) for g in (0, 1)]
    out = [(2, nu, nu) for _, nu in lines]
    out += [(1, nu_i, nu_j) for i, (g_i, nu_i) in enumerate(lines)
            for j, (g_j, nu_j) in enumerate(lines) if i != j and g_i == g_j]
    return out


def heterodyne_moments(model: Model, comp: Component) -> tuple[float, float]:
    """Closed-form E[X] and E[X^2] of one emitter's heterodyne amplitude X
    at tau = t = 0."""
    sigma_s = comp.strain_fwhm_thz / FWHM_PER_SIGMA
    sigma_l = model.laser_fwhm_thz / FWHM_PER_SIGMA
    decay = math.exp(-model.waiting_time_ps / comp.t1_ps)
    paths = pathway_offsets(model, comp)
    mean = sum(m * gaussian_product_mean((a, b), sigma_s, sigma_l)
               for m, a, b in paths)
    second = sum(m * n * gaussian_product_mean((a, b, c, d), sigma_s, sigma_l)
                 for m, a, b in paths for n, c, d in paths)
    return decay * mean, decay ** 2 * second


def _strain_grid(sigma_s: float):
    s = np.linspace(-12.0 * sigma_s, 12.0 * sigma_s, 48001)
    pdf = np.exp(-0.5 * (s / sigma_s) ** 2) / (math.sqrt(2.0 * math.pi) * sigma_s)
    return s, pdf


def amplitude_moments(model: Model, comp: Component, pl: bool) -> tuple[float, float]:
    """E[X] and E[X^2] of one emitter's amplitude at tau = t = 0 by
    quadrature over the strain Gaussian; ``pl`` weights by the quantum yield
    1 / (1 + (|s| / s_c)^p)."""
    sigma_s = comp.strain_fwhm_thz / FWHM_PER_SIGMA
    sigma_l = model.laser_fwhm_thz / FWHM_PER_SIGMA
    s, pdf = _strain_grid(sigma_s)
    x = np.zeros_like(s)
    for m, a, b in pathway_offsets(model, comp):
        x += m * np.exp(-((a + s) ** 2 + (b + s) ** 2) / (2.0 * sigma_l ** 2))
    x *= math.exp(-model.waiting_time_ps / comp.t1_ps)
    if pl:
        x /= 1.0 + (np.abs(s) / model.yield_crossover) ** model.yield_steepness
    return float(np.trapezoid(pdf * x, s)), float(np.trapezoid(pdf * x * x, s))


def ensemble_mean_and_error(model: Model, moments, n: int) -> tuple[float, float]:
    """Mean of the per-emitter amplitude over the component mixture and the
    standard error of an ``n``-emitter average; ``moments(model, comp)``
    returns (E[X], E[X^2]) for one component."""
    per_comp = [moments(model, c) for c in model.components]
    mean = sum(c.weight * m for c, (m, _) in zip(model.components, per_comp))
    second = sum(c.weight * s for c, (_, s) in zip(model.components, per_comp))
    return mean, math.sqrt(max(second - mean ** 2, 0.0) / n)


def echo_signal(n: int, step_ps: float, nu0_thz: float, fwhm_thz: float,
                t2_classes, t1_ps: float, waiting_time_ps: float,
                noise_rms: float, rng: np.random.Generator) -> np.ndarray:
    """Heterodyne two-level ensemble signal per emitter on an n x n grid:
    2 exp(-T/T1) sum_c w_c exp(-(tau+t)/T2_c) exp(2 pi i nu0 (tau-t)
    - 2 pi^2 sigma^2 (tau-t)^2), plus complex Gaussian noise of the given
    rms.  The Gaussian factor is the average over a N(nu0, sigma^2)
    detuning distribution."""
    sigma = fwhm_thz / FWHM_PER_SIGMA
    axis = np.arange(n) * step_ps
    diff = axis[:, None] - axis[None, :]
    total = axis[:, None] + axis[None, :]
    decay = sum(w * np.exp(-total / t2) for t2, w in t2_classes)
    signal = 2.0 * math.exp(-waiting_time_ps / t1_ps) * decay \
        * np.exp(2j * np.pi * nu0_thz * diff - 2.0 * np.pi ** 2 * sigma ** 2 * diff ** 2)
    scale = noise_rms / math.sqrt(2.0)
    return signal + (rng.normal(0.0, scale, signal.shape)
                     + 1j * rng.normal(0.0, scale, signal.shape))

