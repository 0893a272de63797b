import numpy as np
import pytest

from ensembles import two_level
from memory import peak_bytes
from oracles import direct_spectrum_oracle, five_step_transform
from sivmdcs.emitter import LaserSpectrum
from sivmdcs.errors import InvalidSpec, NoHalfCrossing, NonSquareGrid
from sivmdcs.response import Grid, TimeDomainSignal, synthesize_signal
from sivmdcs.spectra import (Trace1D, deconvolve_laser, diagonal_lineout,
                             interpolated_fwhm, project_nu_t, to_spectrum)

FRAME = 406.770


def _random_signal(n_tau=16, n_t=16, seed=0, step=0.5):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_tau, n_t)) + 1j * rng.normal(size=(n_tau, n_t))
    return TimeDomainSignal(data, Grid(n_tau, n_t, step, step, FRAME), 0.5, "pl")


def _two_level_signal(detuning_thz=0.25, n=64, step=0.25):
    return synthesize_signal(two_level(FRAME + detuning_thz, t2_ps=40.0),
                             Grid(n, n, step, step, FRAME), 0.5, "heterodyne")


def test_transform_matches_direct_sums():
    signal = _random_signal()
    spec = to_spectrum(signal)
    expected = direct_spectrum_oracle(signal.data, 0.5, 0.5,
                                      spec.nu_tau_thz, spec.nu_t_thz, FRAME)
    assert np.max(np.abs(spec.data - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_transform_matches_direct_sums_rectangular():
    signal = _random_signal(n_tau=8, n_t=24, seed=3)
    spec = to_spectrum(signal)
    expected = direct_spectrum_oracle(signal.data, 0.5, 0.5,
                                      spec.nu_tau_thz, spec.nu_t_thz, FRAME)
    assert np.max(np.abs(spec.data - expected)) <= 1e-9 * np.max(np.abs(expected))


# (300, 500) splits into column and row blocks with a short last block;
# (70_000, 2) takes one-column blocks and (2, 40_000) one-row blocks
@pytest.mark.parametrize("pad", [1, 2, 3])
@pytest.mark.parametrize("shape", [(7, 7), (8, 8), (6, 9), (9, 4), (1, 5),
                                   (300, 500), (70_000, 2), (2, 40_000)])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_transform_bits_match_the_five_step_reference(dtype, shape, pad):
    signal = _random_signal(*shape, seed=4)
    signal.data = signal.data.astype(dtype)
    before = signal.data.copy()
    spec = to_spectrum(signal, pad_factor=pad)
    expected = five_step_transform(before, pad)
    assert spec.data.dtype == expected.dtype
    assert spec.data.tobytes() == expected.tobytes()
    n_tau = shape[0] * pad
    nu_tau = -(np.fft.fftshift(np.fft.fftfreq(n_tau, 0.5)) + FRAME)
    assert spec.nu_tau_thz.tobytes() == nu_tau[np.argsort(nu_tau)].tobytes()
    assert signal.data.tobytes() == before.tobytes()      # input left unchanged


@pytest.mark.parametrize("shape", [(7, 7), (6, 9), (9, 4), (1, 5), (5, 1),
                                   (300, 500), (70_000, 2), (2, 40_000)])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_overwriting_transform_gives_the_same_bytes_in_the_signal_buffer(dtype, shape):
    signal = _random_signal(*shape, seed=5)
    signal.data = signal.data.astype(dtype)
    plain = to_spectrum(signal)
    buffer = signal.data
    spec = to_spectrum(signal, overwrite=True)
    assert spec.data is buffer
    assert spec.data.tobytes() == plain.data.tobytes()
    assert spec.nu_tau_thz.tobytes() == plain.nu_tau_thz.tobytes()


@pytest.mark.parametrize("case", ["pad 2", "read-only", "float64", "fortran"])
def test_overwrite_falls_back_to_a_fresh_output(case):
    signal = _random_signal(6, 9, seed=6)
    if case == "read-only":
        signal.data.flags.writeable = False
    elif case == "float64":
        signal.data = signal.data.real.copy()
    elif case == "fortran":
        signal.data = np.asfortranarray(signal.data)
    pad = 2 if case == "pad 2" else 1
    before = signal.data.copy()
    spec = to_spectrum(signal, pad, overwrite=True)
    assert not np.shares_memory(spec.data, signal.data)
    assert spec.data.tobytes() == to_spectrum(signal, pad).data.tobytes()
    assert signal.data.tobytes() == before.tobytes()


def test_parseval_identity():
    signal = _random_signal(seed=11)
    spec = to_spectrum(signal)
    lhs = np.sum(np.abs(spec.data) ** 2)
    rhs = spec.parseval_norm * np.sum(np.abs(signal.data) ** 2)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_peak_lands_at_negated_and_direct_frequency():
    d = 0.25
    spec = to_spectrum(_two_level_signal(d))
    idx = np.unravel_index(np.argmax(np.abs(spec.data)), spec.data.shape)
    bin_tau, bin_t = spec.bin_widths()
    assert abs(spec.nu_tau_thz[idx[0]] - (-(FRAME + d))) <= bin_tau / 2
    assert abs(spec.nu_t_thz[idx[1]] - (FRAME + d)) <= bin_t / 2


def test_axes_are_ascending_and_antidiagonal():
    spec = to_spectrum(_random_signal())
    assert np.all(np.diff(spec.nu_tau_thz) > 0)
    assert np.all(np.diff(spec.nu_t_thz) > 0)
    n = len(spec.nu_t_thz)
    for k in range(n):
        assert spec.nu_tau_thz[n - 1 - k] == pytest.approx(-spec.nu_t_thz[k])


def test_pad_factor_refines_bins():
    signal = _random_signal()
    coarse = to_spectrum(signal)
    fine = to_spectrum(signal, pad_factor=4)
    assert fine.data.shape == (64, 64)
    assert fine.bin_widths()[0] == pytest.approx(coarse.bin_widths()[0] / 4)
    with pytest.raises(InvalidSpec):
        to_spectrum(signal, pad_factor=0)
    with pytest.raises(InvalidSpec, match="too large for an array"):
        to_spectrum(signal, pad_factor=10**9)


def _check_projection(spec):
    proj = project_nu_t(spec)
    expected = np.abs(spec.data).sum(axis=0)
    assert proj.amplitude.dtype == expected.dtype
    assert proj.amplitude.tobytes() == expected.tobytes()
    assert np.array_equal(proj.freqs_thz, spec.nu_t_thz)
    assert np.all(proj.valid)


def test_projection_sums_columns():
    _check_projection(to_spectrum(_random_signal()))


# (300, 500) sums in 131-row blocks with a short last block, (600, 1000)
# in 65-row ones; (2, 40_000) takes one-row blocks; a one-column spectrum
# is summed whole
@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape", [(300, 500), (1, 7), (7, 1), (9, 4),
                                   (2, 40_000)])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_projection_has_the_bits_of_the_whole_array_column_sum(dtype, shape, pad):
    signal = _random_signal(*shape, seed=5)
    signal.data = signal.data.astype(dtype)
    _check_projection(to_spectrum(signal, pad_factor=pad))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_projection_memory_is_one_block_and_its_output(dtype):
    n, slack = 512, 64 * 1024
    signal = _random_signal(n, n, seed=6)
    signal.data = signal.data.astype(dtype)
    spec = to_spectrum(signal)
    itemsize = np.dtype(dtype).itemsize // 2             # of |F|
    block = (65_536 // n + 1) * n * itemsize
    output = n * (itemsize + 8 + 1)                      # amplitude, axis, flags
    assert peak_bytes(lambda: project_nu_t(spec)) <= block + output + slack


def test_diagonal_lineout_values_and_axis():
    signal = _random_signal(seed=2)
    decay = diagonal_lineout(signal)
    assert np.allclose(decay.amplitude,
                       np.abs(signal.data[np.arange(16), np.arange(16)]))
    assert np.allclose(decay.time_ps, np.arange(16) * 1.0)
    short = decay.truncated(5.0)
    assert np.array_equal(short.time_ps, decay.time_ps[:6])
    assert np.array_equal(short.amplitude, decay.amplitude[:6])


def test_diagonal_lineout_requires_square_grid():
    with pytest.raises(NonSquareGrid):
        diagonal_lineout(_random_signal(n_tau=8, n_t=16))


def test_deconvolve_divides_and_flags_wings():
    laser = LaserSpectrum(FRAME, 1.0)
    freqs = FRAME + np.linspace(-3.0, 3.0, 201)
    trace = Trace1D(freqs, np.ones_like(freqs))
    out = deconvolve_laser(trace, laser, floor=0.05)
    l2 = laser.amplitude(freqs) ** 2
    center = np.abs(freqs - FRAME) < 0.4
    assert np.allclose(out.amplitude[center], 1.0 / l2[center])
    assert np.all(out.valid == (l2 >= 0.05 * l2.max()))
    assert not np.all(out.valid)


def test_deconvolve_respects_existing_validity_and_floor_bounds():
    laser = LaserSpectrum(FRAME, 1.0)
    freqs = FRAME + np.linspace(-0.1, 0.1, 11)
    trace = Trace1D(freqs, np.ones_like(freqs),
                    valid=np.arange(11) % 2 == 0)
    out = deconvolve_laser(trace, laser)
    assert np.array_equal(out.valid, trace.valid)
    with pytest.raises(InvalidSpec):
        deconvolve_laser(trace, laser, floor=0.0)
    with pytest.raises(InvalidSpec):
        deconvolve_laser(trace, laser, floor=1.0)


def test_trace_rebinned_and_window():
    trace = Trace1D(np.arange(10.0), 2.0 * np.arange(10.0),
                    valid=np.arange(10) != 4)
    binned = trace.rebinned(3)                  # the partial block 9 is dropped
    assert np.array_equal(binned.freqs_thz, [1.0, 4.0, 7.0])
    assert np.array_equal(binned.amplitude, [2.0, 8.0, 14.0])
    assert np.array_equal(binned.valid, [True, False, True])
    box = trace.window(5.0, 1.0)
    assert np.array_equal(box.freqs_thz, [4.0, 5.0, 6.0])
    assert np.array_equal(box.amplitude, [8.0, 10.0, 12.0])
    assert np.array_equal(box.valid, [False, True, True])
    assert np.all(Trace1D(np.arange(3.0), np.ones(3)).valid)


def test_interpolated_fwhm_gaussian():
    sigma = 0.3
    x = np.linspace(-3.0, 3.0, 2001)
    y = np.exp(-0.5 * (x / sigma) ** 2)
    width = interpolated_fwhm(x, y)
    assert width == pytest.approx(2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma,
                                  rel=1e-4)


def test_interpolated_fwhm_uses_outermost_crossings():
    # a spiky envelope dips below half maximum between the true shoulders
    x = np.linspace(-2.0, 2.0, 401)
    y = np.exp(-0.5 * (x / 0.5) ** 2)
    y[195:206:2] *= 0.3
    assert interpolated_fwhm(x, y) == pytest.approx(1.177, abs=0.02)


def test_interpolated_fwhm_truncated_peak_raises():
    x = np.linspace(0.0, 1.0, 50)
    y = np.exp(-x)
    with pytest.raises(NoHalfCrossing):
        interpolated_fwhm(x, y)


def test_interpolated_fwhm_without_half_crossing_raises():
    # a negative maximum: no sample reaches half of it
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(NoHalfCrossing, match="half the maximum"):
        interpolated_fwhm(x, -1.0 - x * (1.0 - x))
