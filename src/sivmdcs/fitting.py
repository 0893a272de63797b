"""Separable least-squares fits for decay traces and frequency lineshapes.

Every model is Phi(x; theta) c: a basis whose columns the amplitudes and the
background c multiply.  By variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)) the in-repo Levenberg-Marquardt iteration runs
over theta alone (log time constants, or a peak's center and log width),
with c from a QR solve at each step and Kaufman's Jacobian (BIT 15, 49
(1975)).  It stops after 200 iterations, or when the relative residual
change drops below 1e-10 or the step norm below 1e-12.  Sigmas come from the
whole model's Jacobian over (c, theta) at the solution.  A noise floor added
in quadrature is not separable: one more iteration over all parameters
follows, from the separable solution."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .emitter import GAUSSIAN_FWHM_PER_SIGMA, LaserSpectrum
from .errors import InvalidSpec, NoConvergence, NoHalfCrossing
from .spectra import DecayTrace, Trace1D, deconvolve_laser, interpolated_fwhm

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


def _covariance(jac, cost, n_points):
    """Parameter covariance from the Jacobian at the solution."""
    jtj = jac.T @ jac
    _lapack_input(jtj)
    sigma2 = cost / max(n_points - jac.shape[1], 1)
    try:
        return sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return sigma2 * np.linalg.pinv(jtj)


def levenberg_marquardt(model_fn, jac_fn, x, y, p0):
    """Minimize sum((model(x, p) - y)^2).

    A trial step whose model is singular or overflows is rejected like one
    that raises the cost.  Returns (p, cov, cost, n_iter, converged).
    """
    p = np.asarray(p0, dtype=float).copy()

    def cost_of(params):
        r = model_fn(x, params) - y
        return r, float(r @ r)

    r, cost = cost_of(p)
    lam = 1e-3
    converged = False
    for it in range(1, MAX_ITER + 1):
        jac = jac_fn(x, p)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30))
            _lapack_input(damped, jtr)
            try:
                p_new = p + np.linalg.solve(damped, -jtr)
                r_new, cost_new = cost_of(p_new)
            except (np.linalg.LinAlgError, OverflowError):
                lam *= 10.0
                continue
            if cost_new <= cost:
                break
            lam *= 7.0
        else:
            break
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        step_norm = float(np.linalg.norm(p_new - p))
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-12)
        if rel_drop < FTOL or step_norm < XTOL:
            converged = True
            break
    return p, _covariance(jac_fn(x, p), cost, len(np.atleast_1d(y))), cost, it, converged


# --- separable models -------------------------------------------------------
# A basis maps (x, theta) to (phi, dphi, owner): the columns of Phi, and in
# column k of dphi the derivative by theta[k] of column owner[k] of Phi.
# Both are column-major: the layout LAPACK reads, and faster to scale by c.

def _decay_basis(x, theta):
    """exp(-x / T_k), with theta_k = log T_k."""
    rate_x = np.outer([math.exp(-t) for t in theta], x).T
    phi = np.exp(-rate_x)
    return phi, phi * rate_x, np.arange(len(theta))


def _peak_basis(shape, envelope=1.0, background=False):
    """A 'gaussian' or 'lorentzian' g((x - center) / width) * envelope, with
    theta = (center, log width), and a column of ones after it with
    ``background``."""
    def basis(x, theta):
        width = math.exp(theta[1])
        u = (x - theta[0]) / width
        if shape == "gaussian":
            g = np.exp(-0.5 * u * u)
            slope = u * g               # -dg/du
        else:
            g = 1.0 / (1.0 + u * u)
            slope = 2.0 * u * g * g
        g, slope = g * envelope, slope * envelope
        phi = np.array([g, np.ones(len(x))][:1 + background]).T
        return phi, np.array([slope / width, slope * u]).T, [0, 0]
    return basis


def _whole(basis, n_theta, floor=0.0):
    """The model Phi(x; theta) c, with ``floor`` added in quadrature, and its
    Jacobian, both over p = (c, theta)."""
    def model(x, p):
        f = basis(x, p[-n_theta:])[0] @ p[:-n_theta]
        return np.sqrt(f * f + floor * floor) if floor > 0 else f

    def jac(x, p):
        c = p[:-n_theta]
        phi, dphi, owner = basis(x, p[-n_theta:])
        jac = np.column_stack([phi, dphi * c[owner]])
        if floor > 0:       # d sqrt(f^2 + floor^2) = (f / model) df
            jac = jac * (phi @ c / model(x, p))[:, None]
        return jac
    return model, jac


def _unit_exponent(y) -> int:
    """k with max |y| 2^-k in [1/2, 1): y 2^-k is exact and lies where the
    absolute floors of the fit arithmetic neither underflow nor overflow."""
    return math.frexp(float(np.max(np.abs(y))))[1]


def _separable_fit(basis, x, y, theta0, floor=0.0):
    """Levenberg-Marquardt over theta with c projected out; with ``floor``,
    one more pass over all of p = (c, theta).  Returns (p, sigmas, residual
    norm, n_iter, converged), the sigmas from the whole model's Jacobian.
    The fit runs on y 2^-k and floor 2^-k, with 2^k the power of two at or
    above max |y|, since the damping and cost floors of
    ``levenberg_marquardt`` are absolute; the scaling is exact, so c, the
    residual norm and their sigmas scale back bit for bit."""
    k = _unit_exponent(y)
    y, floor = np.ldexp(y, -k), math.ldexp(floor, -k)

    @functools.lru_cache(maxsize=1)     # the Jacobian reads the last theta's again
    def project(theta):
        phi, dphi, owner = basis(x, np.array(theta))
        if not np.isfinite(phi).all():
            raise np.linalg.LinAlgError("the basis overflowed")
        q, r = np.linalg.qr(phi)
        c = np.linalg.solve(r, np.dot(q.T, y))
        return np.dot(phi, c), q, c, dphi, owner

    def kaufman(_, theta):
        _, q, c, dphi, owner = project(tuple(theta))
        d = (dphi * c[owner]).T     # row k: (dPhi/dtheta_k) c; rows are faster here
        return (d - np.dot(np.dot(d, q), q.T)).T      # less its part in range(Phi)

    try:
        theta, _, cost, n_iter, converged = levenberg_marquardt(
            lambda _, theta: project(tuple(theta))[0], kaufman, x, y, theta0)
        p = np.concatenate([project(tuple(theta))[2], theta])
        model, jac = _whole(basis, len(theta), floor)
        if floor > 0:
            p, _, cost, more, converged = levenberg_marquardt(model, jac, x, y, p)
            n_iter += more
        cov = _covariance(jac(x, p), cost, len(y))
        sigmas = np.sqrt(np.maximum(np.diag(cov), 0.0))
        n_c = len(p) - len(theta0)
        p[:n_c], sigmas[:n_c] = np.ldexp(p[:n_c], k), np.ldexp(sigmas[:n_c], k)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise NoConvergence(f"fit failed on this trace: {exc}") from None
    return p, sigmas, math.ldexp(math.sqrt(cost), k), n_iter, converged


# --- public fit operations --------------------------------------------------

def fit_exponential(trace: DecayTrace, n_components: int = 1,
                    floor: float = 0.0) -> FitResult:
    """Fit the diagonal decay to one or two decaying exponentials.

    Two-component results are reported with T2a < T2b.  When the two time
    constants land within 10% of each other, one component has vanished
    (its norm over the trace is at most the residual's), or one
    component is unresolved (the sigma of its amplitude or of its time
    constant is at least the value itself, as it is for an amplitude at or
    below 0), the fit collapses to the single-exponential result and carries
    a 'degenerate-fit' warning.
    """
    if n_components not in (1, 2):
        raise InvalidSpec("n_components must be 1 or 2")
    if not (math.isfinite(floor) and floor >= 0):
        raise InvalidSpec(f"floor must be finite and >= 0, got {floor}")
    x = np.asarray(trace.time_ps, float)
    y = np.asarray(trace.amplitude, float)
    n_par = 2 * n_components
    if len(x) < 4 * n_par:
        raise InvalidSpec(f"trace too short: need >= {4 * n_par} points, got {len(x)}")
    if np.count_nonzero(y > 0) < 4:
        raise InvalidSpec("trace has too few positive samples to initialize a fit")
    if floor >= y.max():
        raise InvalidSpec(f"floor {floor:g} must lie below the largest sample of the "
                          f"trace, {y.max():g}: no model fits a trace inside its floor")

    p, sigmas, norm, n_iter, converged = _separable_fit(
        _decay_basis, x, y, _decay_start(x, y, n_components), floor)
    # Checked on p = (A, B, log Ta, log Tb), where sigma(T) >= T reads
    # sigma(log T) >= 1, and before convergence: with a vanished component
    # the iteration wanders along its free time constant and need not stop.
    if n_components == 2:
        close = math.exp(-abs(p[2] - p[3])) > 0.90
        parts = np.abs(p[:2]) * np.sqrt(np.sum(_decay_basis(x, p[2:])[0] ** 2, axis=0))
        if close or parts.min() <= norm or np.any(sigmas >= np.r_[p[:2], 1.0, 1.0]):
            mono = fit_exponential(trace, 1, floor)
            return replace(mono, warnings=mono.warnings + ("degenerate-fit",))
    if not converged:
        raise NoConvergence(f"exponential fit did not converge in {n_iter} iterations")

    # (A, Ta[, B, Tb]) with T2a < T2b
    order = [0, 1] if n_components == 1 else [0, 2, 1, 3] if p[2] < p[3] else [1, 3, 0, 2]
    p, sigmas = p[order], sigmas[order]
    p[1::2] = np.exp(p[1::2])
    sigmas[1::2] *= p[1::2]
    model = "bi-exponential" if n_components == 2 else "mono-exponential"
    return FitResult(model, ("A", "T2a_ps", "B", "T2b_ps")[:len(p)], p, sigmas,
                     norm, converged, n_iter)


def _decay_start(x, y, n_components, n_grid=32):
    """log T of the single time constant, or of the pair, that fits ``y``
    best among ``n_grid`` log-spaced from span / len(x) to 10 span.  One
    Gram matrix of the grid's columns gives every least-squares fit."""
    y = np.ldexp(y, -_unit_exponent(y))    # the same gains, none overflowing
    taus = float(np.ptp(x)) * np.geomspace(1.0 / len(x), 10.0, n_grid)
    cols = np.exp(-np.outer(x - x.min(), 1.0 / taus))     # scaled columns: the same fits
    proj = cols.T @ y
    if n_components == 1:
        i = j = np.arange(n_grid)
        gain = proj * proj / np.einsum("ij,ij->j", cols, cols)
    else:
        gram = cols.T @ cols
        i, j = np.triu_indices(n_grid, 1)
        gii, gjj, gij = gram[i, i], gram[j, j], gram[i, j]
        gain = (proj[i] ** 2 * gjj - 2.0 * proj[i] * proj[j] * gij
                + proj[j] ** 2 * gii) / (gii * gjj - gij * gij)
    best = np.argmax(np.where(np.isfinite(gain), gain, -np.inf))
    return np.log(taus[[i[best], j[best]][:n_components]])


def _width_points(trace: Trace1D):
    """The valid bins of ``trace``: at least five, at strictly increasing
    frequencies whose span, and so every step, is finite, and at least one
    with a positive amplitude."""
    x = np.asarray(trace.freqs_thz, float)[trace.valid]
    y = np.asarray(trace.amplitude, float)[trace.valid]
    if len(x) < 5:
        raise InvalidSpec("trace too short for a width measurement")
    if not (y > 0).any():
        raise InvalidSpec("no valid bin of the trace has a positive amplitude")
    with np.errstate(over="ignore"):        # an overflowing span is refused
        steps, span = np.diff(x), x[-1] - x[0]
    if not (steps > 0).all():
        raise InvalidSpec("the valid frequencies of the trace are not strictly increasing")
    if not math.isfinite(span):
        raise InvalidSpec("the frequency span of the trace overflows")
    return x, y


def _fit_peak(name, shape, x, y, center0, width0, envelope=1.0, background=False):
    """(amp, center, width[, background]) of amp * shape((x - center) / width)
    * envelope [+ background], their sigmas, the residual norm and the
    iterations."""
    p, sigmas, norm, n_iter, converged = _separable_fit(
        _peak_basis(shape, envelope, background), x, y,
        np.array([center0, math.log(max(width0, 1e-6))]))
    order = [0, -2, -1] + [1] * background
    p, sigmas = p[order], sigmas[order]
    if not converged:
        raise NoConvergence(f"{name} fit did not converge")
    p[2] = math.exp(p[2])
    sigmas[2] *= p[2]
    return p, sigmas, norm, n_iter


def fwhm(trace: Trace1D, model: str = "interpolated",
         background: bool = False) -> tuple[float, float]:
    """FWHM of a frequency trace, in THz, with a 1-sigma uncertainty.

    ``model`` is 'gaussian', 'lorentzian', or 'interpolated' (linear
    interpolation of the half-maximum crossings).  ``background`` adds a
    constant additive offset parameter to the fitted models; the
    interpolated width has none and raises ``InvalidSpec`` with it.
    """
    x, y = _width_points(trace)
    if model == "interpolated":
        if background:
            raise InvalidSpec("the interpolated width has no background term; "
                              "fit a 'gaussian' or 'lorentzian' model")
        width = interpolated_fwhm(x, y)
        bin_w = float(np.median(np.diff(x)))
        return width, bin_w / 2.0
    if model not in ("gaussian", "lorentzian"):
        raise InvalidSpec(f"unknown width model {model!r}")
    scale = GAUSSIAN_FWHM_PER_SIGMA if model == "gaussian" else 2.0
    try:
        width0 = interpolated_fwhm(x, y)
    except NoHalfCrossing:
        width0 = (x[-1] - x[0]) / 2.0   # start only; the fit refines it
    p, sigmas, _, _ = _fit_peak(f"{model} width", model, x, y, float(x[np.argmax(y)]),
                                width0 / scale, background=background)
    return scale * p[2], scale * sigmas[2]


def fit_finite_bandwidth(trace: Trace1D, laser: LaserSpectrum,
                         background: bool = False) -> FitResult:
    """Fit an unfiltered projection to G(nu) * L(nu)^2.

    Returns amplitude, center and inhomogeneous sigma; the derived FWHM and
    its uncertainty land in ``extras``.  ``background`` adds a constant
    additive offset parameter.  Flags 'ill-conditioned' when the fitted
    width reaches 3x the laser bandwidth.
    """
    x, y = _width_points(trace)
    laser_sq = laser.amplitude(x) ** 2

    # crude deconvolution for the starting point
    rough = deconvolve_laser(Trace1D(x, y), laser, 0.05).amplitude
    try:
        width0 = interpolated_fwhm(x, rough)
    except NoHalfCrossing:
        width0 = laser.fwhm_thz
    center0 = float(np.sum(x * rough) / np.sum(rough))

    p, sigmas, norm, n_iter = _fit_peak("finite-bandwidth lineshape", "gaussian", x, y, center0,
                                        width0 / GAUSSIAN_FWHM_PER_SIGMA, laser_sq, background)
    warnings = ()
    if GAUSSIAN_FWHM_PER_SIGMA * p[2] >= 3.0 * laser.fwhm_thz:
        warnings = ("ill-conditioned",)
    names = ("amplitude", "center_thz", "sigma_thz") + ("background",) * background
    return FitResult(
        "finite-bandwidth", names,
        p, sigmas, norm, True, n_iter, warnings=warnings,
        extras={"fwhm_thz": GAUSSIAN_FWHM_PER_SIGMA * p[2],
                "fwhm_sigma_thz": GAUSSIAN_FWHM_PER_SIGMA * sigmas[2]})


def lorentzian_width_from_t2(t2_ps: float) -> float:
    """Homogeneous linewidth 1/(2 pi T2) in GHz."""
    if t2_ps <= 0:
        raise ValueError(f"T2 must be positive, got {t2_ps}")
    return 1e3 / (2.0 * math.pi * t2_ps)
