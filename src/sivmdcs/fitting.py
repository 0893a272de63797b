"""Nonlinear least-squares fits for decay traces and frequency lineshapes.

The solver is a damped Gauss-Newton (Levenberg-Marquardt) iteration written
here rather than pulled from a library: max 200 iterations, convergence when
the relative residual change drops below 1e-10 or the step norm below 1e-12,
positivity bounds enforced by projection.  All models expose analytic
Jacobians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .emitter import GAUSSIAN_FWHM_PER_SIGMA, LaserSpectrum
from .errors import InvalidSpec, NoConvergence, NoHalfCrossing
from .spectra import DecayTrace, Trace1D, interpolated_fwhm

MAX_ITER = 200
FTOL = 1e-10
XTOL = 1e-12


@dataclass
class FitResult:
    model: str
    names: tuple[str, ...]
    values: np.ndarray
    sigmas: np.ndarray
    residual_norm: float
    converged: bool
    n_iter: int
    warnings: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def as_text(self) -> str:
        lines = [f"model = {self.model}",
                 f"converged = {self.converged}",
                 f"iterations = {self.n_iter}",
                 f"residual_norm = {self.residual_norm:.6e}"]
        for n, v, s in zip(self.names, self.values, self.sigmas):
            lines.append(f"{n} = {v:.6g} +- {s:.3g}")
        for k, v in self.extras.items():
            lines.append(f"{k} = {v:.6g}")
        for w in self.warnings:
            lines.append(f"warning = {w}")
        return "\n".join(lines)


def _lapack_input(*arrays) -> None:
    """Raise ``NoConvergence`` unless every array is finite: LAPACK, given a
    non-finite matrix, reports an illegal argument on the process's stdout."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NoConvergence("fit arithmetic overflowed on this trace")


def levenberg_marquardt(model_fn, jac_fn, x, y, p0, lower=None):
    """Minimize sum((model(x, p) - y)^2).

    ``lower`` holds per-parameter lower bounds (or -inf); steps are projected
    back into the box.  Returns (p, cov, cost, n_iter, converged).
    """
    p = np.asarray(p0, dtype=float).copy()
    n = len(p)
    if lower is None:
        lower = np.full(n, -np.inf)
    lower = np.asarray(lower, dtype=float)

    def cost_of(params):
        r = model_fn(x, params) - y
        return r, float(r @ r)

    r, cost = cost_of(p)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        jac = jac_fn(x, p)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        step_ok = False
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30))
            _lapack_input(damped, jtr)
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.maximum(p + delta, lower)
            r_new, cost_new = cost_of(p_new)
            if cost_new <= cost:
                step_ok = True
                break
            lam *= 7.0
        if not step_ok:
            break
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        step_norm = float(np.linalg.norm(p_new - p))
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-12)
        if rel_drop < FTOL or step_norm < XTOL:
            converged = True
            break

    jac = jac_fn(x, p)
    jtj = jac.T @ jac
    _lapack_input(jtj)
    dof = max(len(np.atleast_1d(y)) - n, 1)
    sigma2 = cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = sigma2 * np.linalg.pinv(jtj)
    return p, cov, cost, it, converged


# --- model functions -------------------------------------------------------

def multi_exponential(x, params, floor=0.0):
    """A exp(-x/Ta) [+ B exp(-x/Tb)], with an optional constant noise floor
    added in quadrature."""
    f = np.zeros_like(np.asarray(x, float))
    for i in range(0, len(params), 2):
        f = f + params[i] * np.exp(-x / params[i + 1])
    if floor > 0:
        return np.sqrt(f * f + floor * floor)
    return f


def multi_exponential_jac(x, params, floor=0.0):
    x = np.asarray(x, float)
    cols = []
    f = np.zeros_like(x)
    for i in range(0, len(params), 2):
        a, tau = params[i], params[i + 1]
        e = np.exp(-x / tau)
        f = f + a * e
        cols.append(e)
        cols.append(a * x / tau ** 2 * e)
    jac = np.column_stack(cols)
    if floor > 0:
        g = np.sqrt(f * f + floor * floor)
        jac = jac * (f / g)[:, None]
    return jac


def gaussian_peak(x, params):
    amp, center, sigma = params
    return amp * np.exp(-0.5 * ((x - center) / sigma) ** 2)


def gaussian_peak_jac(x, params):
    amp, center, sigma = params
    u = (x - center) / sigma
    e = np.exp(-0.5 * u * u)
    return np.column_stack([e, amp * e * u / sigma, amp * e * u * u / sigma])


def lorentzian_peak(x, params):
    amp, center, hwhm = params
    return amp * hwhm ** 2 / ((x - center) ** 2 + hwhm ** 2)


def lorentzian_peak_jac(x, params):
    amp, center, hwhm = params
    d2 = (x - center) ** 2
    den = d2 + hwhm ** 2
    return np.column_stack([
        hwhm ** 2 / den,
        amp * hwhm ** 2 * 2.0 * (x - center) / den ** 2,
        amp * 2.0 * hwhm * d2 / den ** 2,
    ])


def finite_bandwidth_model(x, params, laser_sq):
    """Gaussian inhomogeneous distribution seen through the squared laser
    spectrum: amp * G(x; center, sigma) * L(x)^2 with L^2 precomputed."""
    return gaussian_peak(x, params) * laser_sq


def finite_bandwidth_jac(x, params, laser_sq):
    return gaussian_peak_jac(x, params) * laser_sq[:, None]


def with_background(model_fn, jac_fn):
    """Extend a model with a trailing additive constant-background parameter."""
    def model(x, params):
        return model_fn(x, params[:-1]) + params[-1]

    def jac(x, params):
        base = jac_fn(x, params[:-1])
        return np.column_stack([base, np.ones(len(np.atleast_1d(x)))])

    return model, jac


# --- public fit operations --------------------------------------------------

def fit_exponential(trace: DecayTrace, n_components: int = 1,
                    floor: float = 0.0) -> FitResult:
    """Fit the diagonal decay to one or two decaying exponentials.

    Two-component results are reported with T2a < T2b.  When the two time
    constants land within 10% of each other, one component has vanished
    (its sum of squares over the trace is below the residual's), or one
    component is unresolved (the sigma of its amplitude or of its time
    constant is at least the value itself), the fit collapses to the
    single-exponential result and carries a 'degenerate-fit' warning.
    """
    if n_components not in (1, 2):
        raise InvalidSpec("n_components must be 1 or 2")
    x = np.asarray(trace.time_ps, float)
    y = np.asarray(trace.amplitude, float)
    n_par = 2 * n_components
    if len(x) < 4 * n_par:
        raise InvalidSpec(f"trace too short: need >= {4 * n_par} points, got {len(x)}")
    if floor < 0:
        raise InvalidSpec("floor must be >= 0")

    try:    # finite but extreme samples can overflow the start or the steps
        p, cov, cost, n_iter, converged = levenberg_marquardt(
            lambda xx, pp: multi_exponential(xx, pp, floor),
            lambda xx, pp: multi_exponential_jac(xx, pp, floor), x, y,
            _exponential_init(x, y, n_components), np.tile([0.0, 1e-9], n_components))
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise NoConvergence(f"exponential fit failed on this trace: {exc}") from None
    sigmas = np.sqrt(np.maximum(np.diag(cov), 0.0))
    # Checked before convergence: with a vanished component the iteration
    # wanders along that component's free time constant and need not stop.
    if n_components == 2:
        close = min(p[1], p[3]) / max(p[1], p[3]) > 0.90
        parts = [np.sum((p[i] * np.exp(-x / p[i + 1])) ** 2) for i in (0, 2)]
        if close or min(parts) <= cost or np.any(sigmas >= p):
            mono = fit_exponential(trace, 1, floor)
            return replace(mono, warnings=mono.warnings + ("degenerate-fit",))
    if not converged:
        raise NoConvergence(f"exponential fit did not converge in {n_iter} iterations")

    if n_components == 2:
        # canonical ordering: T2a < T2b
        if p[1] > p[3]:
            p, sigmas = p[[2, 3, 0, 1]], sigmas[[2, 3, 0, 1]]
        names = ("A", "T2a_ps", "B", "T2b_ps")
        model = "bi-exponential"
    else:
        names = ("A", "T2a_ps")
        model = "mono-exponential"
    return FitResult(model, names, p, sigmas, math.sqrt(cost), converged, n_iter)


def _line(x, y):
    """``np.polyfit(x, y, 1)``.  polyfit divides x by the root of its sum of
    squares, which is 0 when every x is 0 or underflows; the raised 0/0 or
    x/0 stops it before LAPACK sees the non-finite column."""
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return np.polyfit(x, y, 1)
    except FloatingPointError:
        raise NoConvergence("trace times too close to 0 for a line fit") from None


def _exponential_init(x, y, n_components):
    pos = y > 0
    xs, ys = x[pos], y[pos]
    if len(xs) < 4:
        raise InvalidSpec("trace has too few positive samples to initialize a fit")
    if n_components == 1:
        slope, intercept = _line(xs, np.log(ys))
        tau = -1.0 / slope if slope < 0 else (xs[-1] - xs[0])
        return np.array([math.exp(intercept), max(tau, 1e-6)])
    third = max(len(xs) // 3, 2)
    s_slow, i_slow = _line(xs[-third:], np.log(ys[-third:]))
    tau_slow = -1.0 / s_slow if s_slow < 0 else (xs[-1] - xs[0])
    # peel the slow component off before estimating the fast rate, keeping
    # only early points where the residual still dominates
    residual = ys - math.exp(i_slow) * np.exp(-xs / tau_slow)
    early = residual > 1e-3 * ys.max()
    if early.sum() >= 2:
        s_fast, _ = _line(xs[early], np.log(residual[early]))
    else:
        s_fast, _ = _line(xs[:third], np.log(ys[:third]))
    tau_fast = -1.0 / s_fast if s_fast < 0 else (xs[third - 1] - xs[0])
    if tau_slow <= tau_fast:
        tau_slow = 5.0 * tau_fast
    # amplitudes by linear least squares at the two candidate rates
    basis = np.column_stack([np.exp(-x / tau_fast), np.exp(-x / tau_slow)])
    _lapack_input(basis, y)
    amps, *_ = np.linalg.lstsq(basis, y, rcond=None)
    amps = np.maximum(amps, 1e-12 * max(y.max(), 1.0))
    return np.array([amps[0], tau_fast, amps[1], tau_slow])


def fwhm(trace: Trace1D, model: str = "interpolated",
         background: bool = False) -> tuple[float, float]:
    """FWHM of a frequency trace, in THz, with a 1-sigma uncertainty.

    ``model`` is 'gaussian', 'lorentzian', or 'interpolated' (linear
    interpolation of the half-maximum crossings).  ``background`` adds a
    constant additive offset parameter to the fitted models; the
    interpolated width has none and raises ``InvalidSpec`` with it.
    """
    mask = trace.valid
    x = np.asarray(trace.freqs_thz, float)[mask]
    y = np.asarray(trace.amplitude, float)[mask]
    if len(x) < 5:
        raise InvalidSpec("trace too short for a width measurement")
    if model == "interpolated":
        if background:
            raise InvalidSpec("the interpolated width has no background term; "
                              "fit a 'gaussian' or 'lorentzian' model")
        width = interpolated_fwhm(x, y)
        bin_w = float(np.median(np.diff(x)))
        return width, bin_w / 2.0

    try:
        width0 = interpolated_fwhm(x, y)
    except NoHalfCrossing:
        width0 = (x[-1] - x[0]) / 2.0   # init only; the fit refines it
    center0 = float(x[np.argmax(y)])
    amp0 = float(y.max())
    if model == "gaussian":
        fn, jac = gaussian_peak, gaussian_peak_jac
        p0 = [amp0, center0, width0 / GAUSSIAN_FWHM_PER_SIGMA]
        scale = GAUSSIAN_FWHM_PER_SIGMA
    elif model == "lorentzian":
        fn, jac = lorentzian_peak, lorentzian_peak_jac
        p0 = [amp0, center0, width0 / 2.0]
        scale = 2.0
    else:
        raise InvalidSpec(f"unknown width model {model!r}")
    lower = [0.0, -np.inf, 1e-12]
    if background:
        fn, jac = with_background(fn, jac)
        p0 = p0 + [0.0]
        lower = lower + [-np.inf]
    p, cov, cost, n_iter, converged = levenberg_marquardt(
        fn, jac, x, y, p0, lower=lower)
    if not converged:
        raise NoConvergence(f"{model} width fit did not converge")
    return scale * p[2], scale * math.sqrt(max(cov[2, 2], 0.0))


def fit_finite_bandwidth(trace: Trace1D, laser: LaserSpectrum,
                         background: bool = False) -> FitResult:
    """Fit an unfiltered projection to G(nu) * L(nu)^2.

    Returns amplitude, center and inhomogeneous sigma; the derived FWHM and
    its uncertainty land in ``extras``.  ``background`` adds a constant
    additive offset parameter.  Flags 'ill-conditioned' when the fitted
    width reaches 3x the laser bandwidth.
    """
    mask = trace.valid
    x = np.asarray(trace.freqs_thz, float)[mask]
    y = np.asarray(trace.amplitude, float)[mask]
    if len(x) < 5:
        raise InvalidSpec("trace too short for a width measurement")
    laser_sq = laser.amplitude(x) ** 2

    # crude deconvolution for the starting point
    rough = y / np.maximum(laser_sq, 0.05 * laser_sq.max())
    try:
        width0 = interpolated_fwhm(x, rough)
    except NoHalfCrossing:
        width0 = laser.fwhm_thz
    center0 = float(np.sum(x * rough) / np.sum(rough))
    sigma0 = max(width0 / GAUSSIAN_FWHM_PER_SIGMA, 1e-6)
    amp0 = float(np.max(y) / max(np.max(laser_sq), 1e-300))

    fn = lambda xx, pp: finite_bandwidth_model(xx, pp, laser_sq)
    jac = lambda xx, pp: finite_bandwidth_jac(xx, pp, laser_sq)
    p0 = [amp0, center0, sigma0]
    lower = [0.0, -np.inf, 1e-12]
    names = ["amplitude", "center_thz", "sigma_thz"]
    if background:
        fn, jac = with_background(fn, jac)
        p0 = p0 + [0.0]
        lower = lower + [-np.inf]
        names.append("background")
    p, cov, cost, n_iter, converged = levenberg_marquardt(
        fn, jac, x, y, np.array(p0), lower=lower)
    if not converged:
        raise NoConvergence("finite-bandwidth lineshape fit did not converge")

    sigmas = np.sqrt(np.maximum(np.diag(cov), 0.0))
    warnings = ()
    if GAUSSIAN_FWHM_PER_SIGMA * p[2] >= 3.0 * laser.fwhm_thz:
        warnings = ("ill-conditioned",)
    return FitResult(
        "finite-bandwidth", tuple(names),
        p, sigmas, math.sqrt(cost), converged, n_iter, warnings=warnings,
        extras={"fwhm_thz": GAUSSIAN_FWHM_PER_SIGMA * p[2],
                "fwhm_sigma_thz": GAUSSIAN_FWHM_PER_SIGMA * sigmas[2]})


def lorentzian_width_from_t2(t2_ps: float) -> float:
    """Homogeneous linewidth 1/(2 pi T2) in GHz."""
    if t2_ps <= 0:
        raise ValueError(f"T2 must be positive, got {t2_ps}")
    return 1e3 / (2.0 * math.pi * t2_ps)
