import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import jacobian_fd_error
from sivmdcs.emitter import GAUSSIAN_FWHM_PER_SIGMA, LaserSpectrum
from sivmdcs.errors import InvalidSpec
from sivmdcs.fitting import (_decay_basis, _peak_basis, _whole, fit_exponential,
                             fit_finite_bandwidth, fwhm, levenberg_marquardt,
                             lorentzian_width_from_t2)
from sivmdcs.spectra import DecayTrace, Trace1D

# Each case is a whole model Phi(x; theta) c and its Jacobian over
# p = (c, theta): the one that sigma and the noise-floor pass use, with the
# basis derivatives in its theta columns.  Time constants and widths enter
# theta as logs.
JACOBIAN_CASES = [
    ("mono-exponential", *_whole(_decay_basis, 1),
     np.linspace(0.0, 500.0, 60), [3.0, math.log(122.0)]),
    ("bi-exponential", *_whole(_decay_basis, 2),
     np.linspace(0.0, 3000.0, 80), [2.0, 0.7, math.log(120.0), math.log(990.0)]),
    ("mono-exponential-floor", *_whole(_decay_basis, 1, floor=0.05),
     np.linspace(0.0, 900.0, 70), [1.5, math.log(122.0)]),
    ("gaussian", *_whole(_peak_basis("gaussian"), 2),
     np.linspace(-2.0, 2.0, 50), [1.2, 0.1, math.log(0.4)]),
    ("lorentzian", *_whole(_peak_basis("lorentzian"), 2),
     np.linspace(-2.0, 2.0, 50), [0.8, -0.2, math.log(0.3)]),
    ("gaussian-background", *_whole(_peak_basis("gaussian", background=True), 2),
     np.linspace(-2.0, 2.0, 50), [1.2, 0.2, 0.1, math.log(0.4)]),
]

_LASER_SQ_X = np.linspace(404.0, 409.5, 48)
_LASER_SQ = LaserSpectrum(406.77, 4.14).amplitude(_LASER_SQ_X) ** 2
JACOBIAN_CASES += [
    ("finite-bandwidth", *_whole(_peak_basis("gaussian", _LASER_SQ), 2),
     _LASER_SQ_X, [2.0, 406.8, math.log(0.8)]),
    ("finite-bandwidth-background",
     *_whole(_peak_basis("gaussian", _LASER_SQ, background=True), 2),
     _LASER_SQ_X, [2.0, 0.1, 406.8, math.log(0.8)]),
]


@pytest.mark.parametrize("name,fn,jac,x,params", JACOBIAN_CASES,
                         ids=[c[0] for c in JACOBIAN_CASES])
def test_analytic_jacobians_match_finite_differences(name, fn, jac, x, params):
    assert jacobian_fd_error(fn, jac, x, params) < 1e-6


def test_levenberg_marquardt_recovers_gaussian():
    x = np.linspace(-3.0, 3.0, 200)
    model, jac = _whole(_peak_basis("gaussian"), 2)     # p = (amp, center, log sigma)
    truth = np.array([2.5, 0.3, math.log(0.7)])
    y = model(x, truth)
    p, cov, cost, n_iter, converged = levenberg_marquardt(model, jac, x, y, [1.0, 0.0, 0.0])
    assert converged
    assert np.allclose(p, truth, rtol=1e-8)
    assert cost < 1e-16


def test_fit_exponential_mono():
    x = np.linspace(0.0, 600.0, 120)
    trace = DecayTrace(x, 4.0 * np.exp(-x / 122.0))
    result = fit_exponential(trace, 1)
    assert result.converged
    assert result["A"] == pytest.approx(4.0, rel=1e-6)
    assert result["T2a_ps"] == pytest.approx(122.0, rel=1e-6)
    assert result.model == "mono-exponential"


def test_fit_exponential_bi_canonical_order():
    x = np.linspace(0.0, 4000.0, 400)
    trace = DecayTrace(x, 2.0 * np.exp(-x / 120.0) + 0.8 * np.exp(-x / 990.0))
    result = fit_exponential(trace, 2)
    assert result.model == "bi-exponential"
    assert result["T2a_ps"] == pytest.approx(120.0, rel=1e-4)
    assert result["T2b_ps"] == pytest.approx(990.0, rel=1e-4)
    assert result["T2a_ps"] < result["T2b_ps"]
    assert result["A"] == pytest.approx(2.0, rel=1e-4)
    assert result["B"] == pytest.approx(0.8, rel=1e-4)


# The start scans one log-spaced grid of time constants; from there the
# fit must reach the exact decay over the whole range of rates and
# amplitude ratios, not only near the 120/990 ps of fig4.
@seed(2311)
@settings(max_examples=300, deadline=None, database=None)
@given(t_fast=st.floats(5.0, 200.0), ratio=st.floats(3.0, 20.0),
       a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0), n=st.integers(200, 1024))
def test_fit_exponential_recovers_noise_free_decays_from_its_start(t_fast, ratio, a, b, n):
    t_slow = ratio * t_fast
    x = np.linspace(0.0, 5.0 * t_slow, n)
    bi = fit_exponential(DecayTrace(x, a * np.exp(-x / t_fast) + b * np.exp(-x / t_slow)), 2)
    assert bi.model == "bi-exponential"
    assert bi.values == pytest.approx([a, t_fast, b, t_slow], rel=1e-6)
    mono = fit_exponential(DecayTrace(x, b * np.exp(-x / t_slow)), 1)
    assert mono.values == pytest.approx([b, t_slow], rel=1e-6)


def test_fit_exponential_degenerate_collapses_to_mono():
    x = np.linspace(0.0, 600.0, 150)
    trace = DecayTrace(x, 3.0 * np.exp(-x / 150.0))
    result = fit_exponential(trace, 2)
    assert "degenerate-fit" in result.warnings
    assert result.model == "mono-exponential"
    assert result["T2a_ps"] == pytest.approx(150.0, rel=1e-4)


# A second component on one noisy decay drifts off in several ways: its
# amplitude sits at 0 while the iteration never converges (seed 0), it fits
# the first sample alone (seed 1), or it becomes a flat offset (seed 4).
@pytest.mark.parametrize("seed", [0, 1, 4])
def test_fit_exponential_vanished_component_collapses_to_mono(seed):
    x = np.arange(0.0, 600.0, 2.0)
    noise = 0.01 * np.random.default_rng(seed).normal(size=x.size)
    trace = DecayTrace(x, np.exp(-x / 122.0) + noise)
    result = fit_exponential(trace, 2)
    assert result.model == "mono-exponential"
    assert result.warnings == ("degenerate-fit",)
    assert result["T2a_ps"] == pytest.approx(122.0, abs=3.0)
    assert np.array_equal(result.values, fit_exponential(trace, 1).values)


# On other noisy single decays the second component survives but is not
# resolved from the first: T2a = 114 +- 136 ps and T2b = 135 +- 249 ps at
# seed 182, or an amplitude of 0.14 +- 0.26 at seed 31.
@pytest.mark.parametrize("noise,seed", [(0.01, 182), (0.03, 31), (0.03, 144)])
def test_fit_exponential_unresolved_component_collapses_to_mono(noise, seed):
    x = np.arange(0.0, 600.0, 2.0)
    y = np.exp(-x / 122.0) + noise * np.random.default_rng(seed).normal(size=x.size)
    trace = DecayTrace(x, y)
    result = fit_exponential(trace, 2)
    assert result.model == "mono-exponential"
    assert result.warnings == ("degenerate-fit",)
    assert result["T2a_ps"] == pytest.approx(122.0, abs=3.0)
    assert np.array_equal(result.values, fit_exponential(trace, 1).values)


def test_fit_exponential_noise_floor():
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1500.0, 300)
    clean = 5.0 * np.exp(-x / 122.0)
    noisy = np.abs(clean + rng.normal(0.0, 0.05, x.shape))
    result = fit_exponential(DecayTrace(x, noisy), 1, floor=0.05)
    assert result["T2a_ps"] == pytest.approx(122.0, rel=0.05)


def test_fit_exponential_validation():
    x = np.linspace(0.0, 10.0, 30)
    trace = DecayTrace(x, np.exp(-x))
    with pytest.raises(InvalidSpec):
        fit_exponential(trace, 3)
    with pytest.raises(InvalidSpec):
        fit_exponential(DecayTrace(x[:5], np.exp(-x[:5])), 1)
    with pytest.raises(InvalidSpec):
        fit_exponential(trace, 1, floor=-1.0)
    with pytest.raises(InvalidSpec, match="positive samples"):
        fit_exponential(DecayTrace(x, -np.exp(-x)), 1)


def _gaussian_trace(fwhm_thz=0.028, center=406.654, background=0.0, n=301):
    sigma = fwhm_thz / GAUSSIAN_FWHM_PER_SIGMA
    x = center + np.linspace(-5 * fwhm_thz, 5 * fwhm_thz, n)
    return Trace1D(x, np.exp(-0.5 * ((x - center) / sigma) ** 2) + background)


def test_fwhm_models_on_clean_gaussian():
    trace = _gaussian_trace()
    for model in ("interpolated", "gaussian"):
        width, sigma = fwhm(trace, model=model)
        assert width == pytest.approx(0.028, rel=1e-3)
        assert sigma >= 0.0


def test_fwhm_gaussian_with_background_recovers_width():
    trace = _gaussian_trace(background=0.2)
    plain, _ = fwhm(trace, model="gaussian")
    corrected, _ = fwhm(trace, model="gaussian", background=True)
    assert abs(corrected - 0.028) < abs(plain - 0.028)
    assert corrected == pytest.approx(0.028, rel=1e-3)


def test_fwhm_lorentzian_model():
    hwhm = 0.1
    x = np.linspace(-3.0, 3.0, 601)
    trace = Trace1D(x, hwhm ** 2 / (x ** 2 + hwhm ** 2))
    width, _ = fwhm(trace, model="lorentzian")
    assert width == pytest.approx(2 * hwhm, rel=1e-6)


def test_fwhm_respects_validity_mask():
    trace = _gaussian_trace()
    # corrupt only bins flagged invalid; the fit must ignore them
    bad = np.zeros(len(trace.freqs_thz), dtype=bool)
    bad[:40] = True
    trace.amplitude[bad] = 5.0
    trace.valid = ~bad
    width, _ = fwhm(trace, model="gaussian")
    assert width == pytest.approx(0.028, rel=1e-3)


def test_fwhm_validation():
    trace = _gaussian_trace()
    with pytest.raises(InvalidSpec):
        fwhm(trace, model="voigt")
    short = Trace1D(trace.freqs_thz[:3], trace.amplitude[:3])
    with pytest.raises(InvalidSpec):
        fwhm(short)


# Six-bin traces that no width fit can measure: no valid bin above 0, or
# frequencies that do not strictly increase.
_BAD_WIDTH_TRACES = {
    "negative": (np.linspace(406.0, 407.0, 6), -np.ones(6)),
    "zero": (np.linspace(406.0, 407.0, 6), np.zeros(6)),
    "equal-frequencies": (np.full(6, 406.5), np.exp(-np.linspace(-2.0, 2.0, 6) ** 2)),
    "descending": (np.linspace(407.0, 406.0, 6), np.exp(-np.linspace(-2.0, 2.0, 6) ** 2)),
}


@pytest.mark.parametrize("case", sorted(_BAD_WIDTH_TRACES))
@pytest.mark.parametrize("model", ["interpolated", "gaussian", "lorentzian", "lineshape"])
def test_width_fits_refuse_traces_they_cannot_measure(case, model):
    trace = Trace1D(*_BAD_WIDTH_TRACES[case])
    match = "positive amplitude" if case in ("negative", "zero") else "strictly increasing"
    with pytest.raises(InvalidSpec, match=match):
        if model == "lineshape":
            fit_finite_bandwidth(trace, LaserSpectrum(406.77, 4.14))
        else:
            fwhm(trace, model=model)


def test_fwhm_interpolated_rejects_background():
    # the half-maximum crossings include a pedestal: the width would come
    # back too wide instead of corrected
    trace = _gaussian_trace(background=0.3)
    with pytest.raises(InvalidSpec, match="background"):
        fwhm(trace, model="interpolated", background=True)


def test_fit_finite_bandwidth_recovers_broad_width():
    laser = LaserSpectrum(406.77, 4.14)
    sigma = 1.84 / GAUSSIAN_FWHM_PER_SIGMA
    x = np.linspace(403.0, 410.5, 601)
    y = 3.0 * np.exp(-0.5 * ((x - 406.77) / sigma) ** 2) * laser.amplitude(x) ** 2
    result = fit_finite_bandwidth(Trace1D(x, y), laser)
    assert result.converged
    assert result.extras["fwhm_thz"] == pytest.approx(1.84, rel=1e-4)
    assert result["center_thz"] == pytest.approx(406.77, abs=1e-4)
    assert result.warnings == ()


def test_fit_finite_bandwidth_needs_five_valid_points():
    laser = LaserSpectrum(406.77, 4.14)
    x = np.linspace(403.0, 410.5, 9)
    y = laser.amplitude(x) ** 2
    for valid in (np.arange(9) < 4, np.arange(9) < 1):
        with pytest.raises(InvalidSpec, match="too short"):
            fit_finite_bandwidth(Trace1D(x, y, valid=valid), laser)
    fit_finite_bandwidth(Trace1D(x, y, valid=np.arange(9) < 5), laser)   # enough


def test_fit_finite_bandwidth_background_parameter():
    laser = LaserSpectrum(406.77, 4.14)
    sigma = 1.84 / GAUSSIAN_FWHM_PER_SIGMA
    x = np.linspace(403.0, 410.5, 601)
    y = 3.0 * np.exp(-0.5 * ((x - 406.77) / sigma) ** 2) * laser.amplitude(x) ** 2
    result = fit_finite_bandwidth(Trace1D(x, y + 0.25), laser, background=True)
    assert result["background"] == pytest.approx(0.25, rel=1e-3)
    assert result.extras["fwhm_thz"] == pytest.approx(1.84, rel=1e-3)


def test_fit_finite_bandwidth_flags_ill_conditioned_width():
    laser = LaserSpectrum(406.77, 1.0)
    sigma = 8.0 / GAUSSIAN_FWHM_PER_SIGMA
    x = np.linspace(403.0, 410.5, 301)
    y = np.exp(-0.5 * ((x - 406.77) / sigma) ** 2) * laser.amplitude(x) ** 2
    result = fit_finite_bandwidth(Trace1D(x, y), laser)
    assert "ill-conditioned" in result.warnings


def test_fit_result_text_and_csv():
    trace = _gaussian_trace()
    laser = LaserSpectrum(406.654, 4.14)
    result = fit_finite_bandwidth(trace, laser)
    text = result.as_text()
    assert "model = finite-bandwidth" in text
    assert "fwhm_thz" in text
    assert result.sigmas[result.names.index("sigma_thz")] >= 0.0


def test_lorentzian_width_from_t2():
    assert lorentzian_width_from_t2(122.0) == pytest.approx(1.3045, abs=1e-3)
    assert lorentzian_width_from_t2(990.0) == pytest.approx(0.16077, abs=1e-4)
    with pytest.raises(ValueError):
        lorentzian_width_from_t2(0.0)
