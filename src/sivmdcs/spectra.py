"""2D rephasing spectra and their derived 1D traces.

Axis convention: the first-order interaction is conjugate, so a transition
at absolute frequency nu produces a peak at (nu_tau, nu_t) = (-nu, +nu).
The transform peaks the tau axis at the positive rotating-frame detuning and
then relabels it with a negated absolute axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emitter import LaserSpectrum
from .errors import InvalidSpec, NoHalfCrossing
from .blocks import row_blocks
from .response import TimeDomainSignal, _require_square


@dataclass
class Spectrum2D:
    data: np.ndarray             # complex, shape (len(nu_tau), len(nu_t))
    nu_tau_thz: np.ndarray       # ascending, negative absolute frequencies
    nu_t_thz: np.ndarray         # ascending, absolute frequencies
    pad_factor: int
    parseval_norm: float         # sum |F|^2 == norm * sum |S|^2
    metadata: dict = field(default_factory=dict)

    def bin_widths(self) -> tuple[float, float]:
        return (float(self.nu_tau_thz[1] - self.nu_tau_thz[0]) if len(self.nu_tau_thz) > 1 else 0.0,
                float(self.nu_t_thz[1] - self.nu_t_thz[0]) if len(self.nu_t_thz) > 1 else 0.0)


@dataclass
class Trace1D:
    freqs_thz: np.ndarray
    amplitude: np.ndarray        # real, non-negative
    valid: np.ndarray | None = None  # bool flags; None means all valid

    def __post_init__(self):
        if self.valid is None:
            self.valid = np.ones(len(self.amplitude), dtype=bool)

    def window(self, center: float, half_width: float) -> Trace1D:
        """The bins within ``half_width`` of ``center``."""
        keep = np.abs(self.freqs_thz - center) <= half_width
        return Trace1D(self.freqs_thz[keep], self.amplitude[keep], self.valid[keep])

    def rebinned(self, factor: int) -> Trace1D:
        """Block averages of ``factor`` bins, which suppress per-bin sampling
        noise; a block is valid when all its bins are.  A partial last block
        is dropped."""
        n = (len(self.freqs_thz) // factor) * factor
        blocks = lambda a: a[:n].reshape(-1, factor)
        return Trace1D(blocks(self.freqs_thz).mean(axis=1),
                       blocks(self.amplitude).mean(axis=1),
                       blocks(self.valid).all(axis=1))


@dataclass
class DecayTrace:
    time_ps: np.ndarray          # t + tau along the diagonal, starts at 0
    amplitude: np.ndarray

    def truncated(self, t_max_ps: float) -> DecayTrace:
        """The samples with t + tau <= ``t_max_ps``, a finite time."""
        if not math.isfinite(t_max_ps):
            raise InvalidSpec(f"t_max must be a finite time, got {t_max_ps} ps")
        keep = self.time_ps <= t_max_ps
        return DecayTrace(self.time_ps[keep], self.amplitude[keep])


def to_spectrum(signal: TimeDomainSignal, pad_factor: int = 1, *,
                overwrite: bool = False) -> Spectrum2D:
    """Discrete 2D transform of S(tau, t) with the rephasing axis convention,
    in two passes over the output through 65,536-entry blocks; each 1-D line
    has the whole-array form's numpy call.  The input is never written unless
    ``overwrite`` (scipy.fft's ``overwrite_x``) is set at pad 1 and
    ``signal.data`` is a writeable C-contiguous array of the output's dtype:
    then it becomes the output, with the same bits, and the signal must not
    be read after the call."""
    grid, data = signal.grid, signal.data
    n_tau = grid.n_tau * pad_factor
    n_t = grid.n_t * pad_factor
    dtype = np.result_type(data.dtype, 1j)     # numpy fft's output type
    if pad_factor < 1 or n_tau * n_t * dtype.itemsize > np.iinfo(np.intp).max:
        raise InvalidSpec(f"pad factor {pad_factor} is below 1 or too large for an array")
    k, k_t = n_tau - n_tau // 2, n_t - n_t // 2
    in_place = (overwrite and pad_factor == 1 and data.dtype == dtype
                and data.flags.c_contiguous and data.flags.writeable)
    out = data if in_place else np.empty((n_tau, n_t), dtype)

    # tau axis by widened, zero-padded column blocks (numpy's fft runs in double
    # precision for any complex input), stored fftshifted and row-reversed; a
    # block is copied whole into scratch before its columns are written
    cols = row_blocks(grid.n_t, n_tau)
    scratch = np.empty((n_tau, min(cols.step, grid.n_t)), np.complex128)
    for lo in cols:
        hi = min(lo + cols.step, grid.n_t)
        s = scratch[:, :hi - lo]
        s[:grid.n_tau] = data[:, lo:hi]
        s[grid.n_tau:] = 0
        np.fft.fft(s, axis=0, out=s)
        out[:k, lo:hi] = s[k - 1::-1]
        out[k:, lo:hi] = s[:k - 1:-1]
    out[:, grid.n_t:] = 0
    # t axis by row blocks in the output's precision, scaled and fftshifted
    rows = row_blocks(n_tau, n_t)
    scratch = np.empty((min(rows.step, n_tau), n_t), dtype)
    for block in np.split(out, rows[1:]):
        s = np.fft.ifft(block, axis=1, out=scratch[:len(block)])
        np.multiply(s[:, k_t:], n_t, out=block[:, :n_t - k_t])
        np.multiply(s[:, :k_t], n_t, out=block[:, n_t - k_t:])

    f_tau = np.fft.fftshift(np.fft.fftfreq(n_tau, grid.tau_step_ps))
    f_t = np.fft.fftshift(np.fft.fftfreq(n_t, grid.t_step_ps))
    nu_t = f_t + grid.frame_thz
    # Negation reverses the axis; reverse it and the rows to keep it ascending.
    nu_tau = -(f_tau + grid.frame_thz)[::-1]

    meta = dict(signal.metadata)
    meta["waiting_time_ps"] = signal.waiting_time_ps
    return Spectrum2D(out, nu_tau, nu_t, pad_factor,
                      parseval_norm=float(n_tau) * float(n_t), metadata=meta)


@np.errstate(over="ignore")      # an overflowing sum is refused where written
def project_nu_t(spectrum: Spectrum2D) -> Trace1D:
    """Amplitude projection onto the nu_t axis: ``np.abs(F).sum(axis=0)`` bit
    for bit, by row blocks of |F| whose row 0 carries the running sum, so the
    additions stay row-sequential; one column, summed pairwise, is done whole."""
    data, n_t = spectrum.data, spectrum.data.shape[1]
    if n_t <= 1:
        return Trace1D(spectrum.nu_t_thz.copy(), np.abs(data).sum(axis=0))
    rows = row_blocks(len(data), n_t)
    block = np.zeros((rows.step + 1, n_t), data.real.dtype)
    for part in np.split(data, rows[1:]):
        np.abs(part, out=block[1:len(part) + 1])
        block[0] = block[:len(part) + 1].sum(axis=0)
    return Trace1D(spectrum.nu_t_thz.copy(), block[0].copy())


def diagonal_lineout(signal: TimeDomainSignal) -> DecayTrace:
    """|S| sampled along tau = t, plotted against t + tau."""
    _require_square(signal.grid)
    k = np.arange(signal.grid.n_tau)
    return diagonal_decay(signal.data[k, k], signal.grid.tau_step_ps)


def diagonal_decay(diagonal: np.ndarray, step_ps: float) -> DecayTrace:
    """|S(tau_k, tau_k)| against t + tau = 2 k ``step_ps``: the decay trace
    of a diagonal from ``synthesize_diagonal`` or of a grid's lineout."""
    return DecayTrace(2.0 * np.arange(len(diagonal)) * step_ps, np.abs(diagonal))


def deconvolve_laser(trace: Trace1D, laser: LaserSpectrum,
                     floor: float = 0.05) -> Trace1D:
    """Divide out the squared laser spectrum, flagging wing bins.

    Bins where the squared spectrum falls below ``floor`` times its maximum
    are clipped to the floor and flagged invalid so downstream fits can skip
    them.
    """
    if not (0.0 < floor < 1.0):
        raise InvalidSpec(f"deconvolution floor must be in (0, 1), got {floor}")
    l2 = laser.amplitude(trace.freqs_thz) ** 2
    threshold = floor * l2.max()
    out = trace.amplitude / np.maximum(l2, threshold)
    return Trace1D(trace.freqs_thz.copy(), out, (l2 >= threshold) & trace.valid)


def interpolated_fwhm(freqs: np.ndarray, amplitude: np.ndarray) -> float:
    """FWHM by linear interpolation of the half-maximum crossings.

    Uses the outermost crossings (scanning inward from each edge), which is
    stable against shot-to-shot spikes near the peak of sampled envelopes.
    """
    half = float(np.max(amplitude)) / 2.0
    above = np.nonzero(amplitude >= half)[0]
    if len(above) == 0:
        raise NoHalfCrossing("no sample reaches half the maximum")
    il, ir = int(above[0]), int(above[-1])
    if il == 0 or ir == len(amplitude) - 1:
        raise NoHalfCrossing("peak is truncated within the trace")
    x_left = np.interp(half, [amplitude[il - 1], amplitude[il]],
                       [freqs[il - 1], freqs[il]])
    x_right = np.interp(half, [amplitude[ir + 1], amplitude[ir]],
                        [freqs[ir + 1], freqs[ir]])
    return float(x_right - x_left)
