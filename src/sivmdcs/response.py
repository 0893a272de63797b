"""Time-domain third-order signal synthesis over an inhomogeneous ensemble.

Everything is computed in a rotating frame at ``grid.frame_thz`` so that
desk-scale grids resolve all detunings.  Each (emitter, pathway) pair
contributes a separable term

    w_det * mu^4 * I(exc) * I(emit) * exp(-T/T1)
        * exp[(+2 pi i d_exc - 1/T2) tau] * exp[(-2 pi i d_emit - 1/T2) t]

where I is the unit-peak laser spectral weight (so the filter equals the
field amplitude to the fourth power for a direct peak), d_* are detunings
from the frame origin, and w_det is 1 for heterodyne detection or the
emitter quantum yield for PL detection.  The terms follow the merged
pathway table of ``pathways`` (a direct peak's GSB and SE rows are one term
of twice the weight): eight per four-line emitter, one per two-level one.
The ensemble owns that layout, ``Ensemble.terms``; a call applies its mode,
laser, frame and waiting time to it one chunk of terms at a time, through
``_pathway_terms``, the one request check: a known mode and an emitter, for
the grid, the streamed rows, the diagonal and the waiting-time scan alike.

Two routes evaluate the double sum:

* the dense route, the general path, sums both exponential factors of
  every term over the grid, O(N * n_tau * n_t);
* the difference-axis ("echo") route uses the photon-echo structure of
  the rephasing signal (Siemens et al., Opt. Express 18, 17699 (2010)).
  Terms sharing delta = d_emit - d_exc and T2 (a ``_groups`` group) sum to
  exp[-(tau + t)/T2 - 2 pi i delta t] * h(tau - t) with
  h(L) = sum_k w_k exp(2 pi i d_exc,k L), so only the n_tau + n_t - 1
  lags of h are summed.  ``_lag_sums`` sums them by Gaussian gridding
  (Greengard & Lee, SIAM Rev. 46, 443 (2004)): each term spreads onto 24
  cells of a grid of at least four cells per lag, and one inverse FFT gives
  every lag, O(N + n log n) in all, within 1e-13 of the group's sum |w|.
  Each row block is then one matrix product over every group per at most
  64 rows, which holds the rows along its skewed diagonals.

The dense route and the diagonal call ``_phasor_product``, a weighted sum
over terms of two exponential factors on uniform axes.  Each factor is a
phasor table from ``blocks.phasors``, shared with the lock-in.  The kernel
takes chunks of terms, each building its column table and its row table
from a fresh anchor, and adds the matrix products in chunk order.
``_chunk_terms`` sizes a chunk from the rows: 1 MiB in the larger table, so
that it stays in L2, but at least four times the block's entries; the dense
route sizes it from a whole row block, so a short last block takes the same
chunks.  The lag sums spread their terms in chunks of as many kernel
entries.  Zero terms round a chunk, and zero groups a product over more
than 256 groups, up to a multiple of 8 (``_TERM_MULTIPLE``).  Blocks,
chunks, anchors and products follow from the grid alone, so the bits
depend on neither the rows asked for nor the BLAS thread count, and memory
stays flat in the term count, as in ``waiting_time_scan``, which contracts
per-emitter sums with real tables of exp(-T/T1) in chunks of
``_chunk_terms(n_waits, 1)`` emitters.  Tests check both routes against a
direct exp at every grid point.

The echo route is taken when the two grid steps are equal and the distinct
(delta, T2) groups are few compared with the terms (constant or class T2,
strain-independent splittings), else the dense route, for example with
log-normal T2 or unequal steps.  Either gives ``rows(lo, out)``, which fills
one of the grid's ``row_blocks`` in complex128: the echo route from lag
sums built first, through one reused product of at most 64 (n_t + 63)
entries, the dense route beside one chunk's column table (4 MiB at
1024^2).  ``signal_rows`` streams those blocks through one reused block,
and ``synthesize_signal`` casts each into its complex64 grid, the precision
datasets store, and adds the noise.

The third product, ``synthesize_diagonal``, is the tau = t diagonal alone,
where the inhomogeneous phase cancels: S(tau, tau) = sum_k w_k exp[(-2/T2_k
- 2 pi i delta_k) tau], so each ``_groups`` group merges into one term, and
one phasor product with a zero-rate column sums them in O(N log N + G n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blocks import BLOCK_ENTRIES, phasors, row_blocks
from .emitter import Ensemble, LaserSpectrum
from .errors import EmptyEnsemble, GridTooCoarse, InvalidSpec, NonSquareGrid

DETECTION_MODES = ("pl", "heterodyne")


@dataclass(frozen=True)
class Grid:
    """Rectangular (tau, t) delay grid plus the rotating-frame origin."""

    n_tau: int
    n_t: int
    tau_step_ps: float
    t_step_ps: float
    frame_thz: float

    def __post_init__(self):
        if self.n_tau < 1 or self.n_t < 1:
            raise InvalidSpec("grid must have at least one point per axis")
        if not all(0 < step and math.isfinite(step)
                   for step in (self.tau_step_ps, self.t_step_ps)):
            raise InvalidSpec("grid steps must be positive and finite")

    @property
    def tau_ps(self) -> np.ndarray:
        return np.arange(self.n_tau) * self.tau_step_ps

    @property
    def t_ps(self) -> np.ndarray:
        return np.arange(self.n_t) * self.t_step_ps

    def require_square(self) -> None:
        """Raise ``NonSquareGrid`` unless the grid has a tau = t diagonal."""
        if self.n_tau != self.n_t or self.tau_step_ps != self.t_step_ps:
            raise NonSquareGrid(
                f"the tau = t diagonal needs a square grid with equal steps, got "
                f"{self.n_tau}x{self.n_t} at ({self.tau_step_ps}, {self.t_step_ps}) ps")


@dataclass
class TimeDomainSignal:
    data: np.ndarray             # complex, shape (n_tau, n_t)
    grid: Grid
    waiting_time_ps: float
    detection_mode: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.data.shape != (self.grid.n_tau, self.grid.n_t):
            raise InvalidSpec("signal matrix does not match its grid")


def _pathway_terms(ensemble: Ensemble, mode: str, laser: LaserSpectrum | None,
                   frame_thz: float, waiting_time_ps: float):
    """The function (lo, hi) -> per-term arrays (d_exc, d_emit, weight, T2)
    of terms lo:hi of the ensemble's cached layout, every term when called
    with no arguments; a weight carries its row's multiplicity.  Raises
    unless ``mode`` is a detection mode and the ensemble has an emitter."""
    if mode not in DETECTION_MODES:
        raise InvalidSpec(f"unknown detection mode {mode!r}")
    if len(ensemble) == 0:
        raise EmptyEnsemble("the ensemble needs at least one emitter")
    layout = ensemble.terms
    base = (ensemble.quantum_yield if mode == "pl" else 1.0) * ensemble.dipole ** 4 \
        * np.exp(-waiting_time_ps / ensemble.t1_ps)

    def terms(lo=0, hi=None):
        nu_exc, nu_emit = layout.nu_exc_thz[lo:hi], layout.nu_emit_thz[lo:hi]
        weight = base.take(layout.emitter[lo:hi])
        if laser is not None:
            weight *= laser.amplitude(nu_exc)
            weight *= laser.amplitude(nu_emit)
        weight *= layout.multiplicity[lo:hi]
        return (nu_exc - frame_thz, nu_emit - frame_thz, weight.astype(complex),
                layout.t2_ps[lo:hi])
    return terms


def _rates(nu, t2, sign: float) -> np.ndarray:
    """sign 2 pi i nu - 1/T2, built by parts with that expression's bits."""
    z = np.empty(len(nu), dtype=complex)
    z.real, z.imag = -1.0 / t2, (sign * 2.0 * np.pi) * nu
    return z


# For 8 groups of m terms on 64^2, 256^2 and 1024^2 grids the echo route
# takes 0.17-2.4x the dense time at m = 16 to 24 (more than 1x on 64^2),
# 0.13-0.94x at m = 32 and 0.07-0.64x at m = 64: 32 is the smallest of these
# where the echo route is never the slower.  On 16^2 it takes 3-4x at any m.
_ECHO_TERMS_PER_GROUP = 32
_TABLE_ENTRIES = BLOCK_ENTRIES  # of a chunk's larger table: 1 MiB
# OpenBLAS's zgemm contracts in blocks of Q = 256 terms and halves a last
# Q < r < 2Q terms at (r + 1) // 2 when threaded but at r // 2 rounded up to
# a multiple of 4 when serial, so those bits follow the BLAS thread count.
# Zero terms up to a multiple of 8 make both split at r / 2 and add zeros.
_TERM_MULTIPLE = 8


# Gaussian gridding (Greengard & Lee, SIAM Rev. 46, 443 (2004)) on n >= 4 n_lag
# cells, so that every output index m has |m| <= n_lag / 2 <= n / 8.  A
# Gaussian of sigma 1.5 cells spread to its 24 nearest cells (each omitted
# cell at least 12 away) errs by at most 1.4e-14 of sum |w| through truncation
# and 3.5e-15 through aliasing, both after the division by its transform,
# which grows by at most exp(2 pi^2 sigma^2 / 64) = 2.0 out to |m| = n / 8; the
# FFT's rounding adds a few log2(n) ulps of sum |w|.  Together: 1e-13 of
# sum |w| at any n_lag.
_SPREAD = np.arange(-11, 13)    # cells from the one at or below a term
_SIGMA = 1.5                    # the Gaussian's standard deviation, in cells
# In a product of h rows the echo route's decay factors reach exp(-2 (h - 1)
# step / T2) exp(-tau_0 / T2) in C and exp((h - 1) step / T2) in K, so h
# step / T2_min stays at most _ECHO_DECAY: K stays finite, and where C
# underflows the signal is under exp(-256) of its lag sum.  h stays at most
# _ECHO_ROWS too, so that a product's h (n_t + h - 1) entries waste little on
# narrow grids.
_ECHO_DECAY = 256.0
_ECHO_ROWS = 64


def _chunk_terms(n_row: int, n_col: int) -> int:
    """Terms per chunk of the phasor product on an (n_row, n_col) sub-block:
    _TABLE_ENTRIES in the larger table, but at least four times n_row n_col."""
    return max(_TABLE_ENTRIES // max(n_row, n_col), 4 * min(n_row, n_col))


def _phasor_product(factors, n_terms: int, out: np.ndarray, row_step: float,
                    col_step: float, row_start: float = 0.0,
                    height: int | None = None) -> np.ndarray:
    """Write the sum over terms k of weight_k exp(z_row,k (row_start + i
    row_step)) exp(z_col,k j col_step) to ``out`` and return it, in chunks of
    terms sized for ``height`` rows (default len(out)), ``factors(a, b)``
    giving (z_row, z_col, weight) of terms a:b."""
    n_col = out.shape[1]
    # a multiple of _TERM_MULTIPLE, so that only the last chunk takes zeros
    chunk = -(-_chunk_terms(height or len(out), n_col) // _TERM_MULTIPLE) * _TERM_MULTIPLE
    for first in range(0, n_terms, chunk):
        z_row, z_col, weight = factors(first, first + chunk)
        if pad := -len(weight) % _TERM_MULTIPLE:
            z_row, z_col, weight = (np.concatenate((a, np.zeros(pad, complex)))
                                    for a in (z_row, z_col, weight))
        along_col = phasors(z_col, n_col, col_step).T
        u = phasors(z_row, len(out), row_step, row_start)
        u *= weight
        if first:
            out += u @ along_col
        else:
            np.matmul(u, along_col, out=out)
        del u, along_col    # each table goes before the next is built
    return out


def _dense_rows(terms, n_terms: int, grid: Grid):
    """Dense route, the general path, on ``terms(lo, hi)`` = (d_exc, d_emit,
    weight, T2), as ``rows(lo, out)``, in chunks sized for a whole row block."""
    def factors(lo, hi):
        nu_exc, nu_emit, weight, t2 = terms(lo, hi)
        return _rates(nu_exc, t2, 1.0), _rates(nu_emit, t2, -1.0), weight

    height = min(row_blocks(grid.n_tau, grid.n_t).step, grid.n_tau)
    return lambda lo, out: _phasor_product(factors, n_terms, out, grid.tau_step_ps,
                                           grid.t_step_ps, lo * grid.tau_step_ps, height)


def _groups(nu_exc, nu_emit, weight, t2):
    """Sort the terms by (T2, delta = d_emit - d_exc, d_exc): the first index
    of each group of exactly equal (delta, T2), and the sorted delta, T2,
    d_exc and weight.  delta is the rounded difference; with both detunings
    under Nyquist its rounding moves the phase at t by at most 2 pi n_t
    2^-53 rad, the size of the dense route's own rounding of its exponent."""
    delta = nu_emit - nu_exc
    order = np.lexsort((nu_exc, delta, t2))
    delta, t2 = delta[order], t2[order]
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    new_group[1:] = (delta[1:] != delta[:-1]) | (t2[1:] != t2[:-1])
    return np.flatnonzero(new_group), delta, t2, nu_exc[order], weight[order]


def _echo_groups(nu_exc, nu_emit, weight, t2):
    """The (delta, T2, d_exc array, weight array) of each ``_groups`` group,
    or None when the groups are too many for the echo route to pay."""
    starts, delta, t2, nu, weight = _groups(nu_exc, nu_emit, weight, t2)
    if len(starts) * _ECHO_TERMS_PER_GROUP > len(nu):
        return None
    bounds = np.append(starts, len(nu))
    return [(delta[lo], t2[lo], nu[lo:hi], weight[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _cis(turns) -> np.ndarray:
    """exp(2 pi i turns), with whole turns taken off first, so that the phase
    rounds relative to each product ``turns``, not to a shared constant."""
    return np.exp(2j * np.pi * (turns - np.rint(turns)))


def _lag_sums(nu, weight, n_lag: int, step: float, first: float) -> np.ndarray:
    """h(L_p) = sum_k weight_k exp(2 pi i nu_k L_p) on the lags L_p = first +
    p step, p < n_lag, by Gaussian gridding: each weight, moved to the middle
    lag L_mid, spreads onto a power-of-two grid of at least 4 n_lag cells,
    then one inverse FFT, divided by the Gaussian's transform, gives every
    lag, within 1e-13 of sum |weight| beyond the rounding of the products
    nu_k step and nu_k L_mid, which a direct sum also makes.  The terms go in
    chunks whose kernel table holds _TABLE_ENTRIES, so memory stays flat in
    their number."""
    n = 1 << (4 * n_lag - 1).bit_length()
    half = n_lag // 2
    mid = first + half * step
    chunk = _chunk_terms(len(_SPREAD), 1)
    sums = np.zeros(n, dtype=complex)
    for lo in range(0, len(nu), chunk):
        part = nu[lo:lo + chunk]
        cell = part * step * n          # n cells per turn of the phase per lag
        below = np.floor(cell)
        kernel = np.subtract.outer(cell - below, _SPREAD)
        np.square(kernel, out=kernel)
        kernel *= -0.5 / _SIGMA ** 2
        np.exp(kernel, out=kernel)
        at = np.add.outer(below.astype(np.intp), _SPREAD)
        at &= n - 1                     # the grid is periodic: modulo n
        at = at.ravel()
        w = weight[lo:lo + chunk] * _cis(part * mid)
        for dst, w_part in ((sums.real, w.real), (sums.imag, w.imag)):
            dst += np.bincount(at, np.multiply(kernel, w_part[:, None]).ravel(), n)
    m = np.arange(-half, n_lag - half)  # p - half: |m| <= n_lag / 2 <= n / 8
    h = np.fft.ifft(sums)[m]
    h *= np.exp((2.0 * np.pi ** 2 * _SIGMA ** 2) * (m / n) ** 2)
    h *= n / (_SIGMA * math.sqrt(2.0 * np.pi))
    return h


def _echo_rows(groups, grid: Grid):
    """Difference-axis route on a grid with equal steps: builds every group's
    lag function, then returns ``rows(lo, out)``, which fills ``out`` with rows
    lo:lo + len(out), up to 64 rows per matrix product over the groups.

    A product's row r, at tau = tau_0 + r step, takes from group g
    C[r, g] K[g, L] at each lag L = tau - t, with C = exp(-(2 r step + tau_0)
    / T2 - 2 pi i delta tau) and K = exp((L - tau_0) / T2 + 2 pi i delta L) h(L).
    So M = C @ K holds every row, each along a skewed diagonal; the lags are
    stored in reverse order, so that the diagonals read forward.  With one
    group M is an outer product.  The decay of K depends on L - tau_0 alone:
    one table serves every product."""
    n_tau, n_t, step = grid.n_tau, grid.n_t, grid.tau_step_ps
    n_lag = n_tau + n_t - 1
    # zero groups (C = 1, K = 0) pad a product over more than 256 groups to a
    # multiple of _TERM_MULTIPLE, where OpenBLAS would split it by thread count
    n_real = len(groups)
    n_group = n_real if n_real <= 256 else -(-n_real // _TERM_MULTIPLE) * _TERM_MULTIPLE
    rate, turns = np.zeros(n_group), np.zeros(n_group)     # per row, per ps
    # lags[g, v] = exp(2 pi i delta L) h(L) at L = (n_tau - 1 - v) step
    lags = np.empty((n_real, n_lag), dtype=complex)
    lag_ps = (n_tau - 1 - np.arange(n_lag)) * step
    for g, (delta, t2, nu, weight) in enumerate(groups):
        rate[g], turns[g] = step / t2, -delta
        lags[g] = _lag_sums(nu, weight, n_lag, -step, lag_ps[0])
        lags[g] *= _cis(delta * lag_ps)
    t2_min = min(t2 for _, t2, _, _ in groups)
    height = min(row_blocks(n_tau, n_t).step, n_tau,
                 max(1, int(min(_ECHO_ROWS, _ECHO_DECAY * t2_min / step))))
    width = n_t + height - 1
    # decay[g, a] = exp((height - 1 - a) step / T2): a product of h rows reads
    # it from column height - h on
    decay = np.exp(np.outer(rate[:n_real], np.arange(height - 1.0, height - 1.0 - width, -1.0)))
    scaled = np.zeros((n_group, width), dtype=complex)     # K; its zero groups stay 0
    product = np.empty(height * width, dtype=complex)

    def fill(lo, out):
        for first in range(0, len(out), height):
            h, row = min(height, len(out) - first), lo + first
            w = n_t + h - 1
            k = scaled[:, :w]
            np.multiply(lags[:, n_tau - row - h:n_tau - row - h + w],
                        decay[:, height - h:height - h + w], out=k[:n_real])
            r = np.arange(row, row + h, dtype=float)
            c = _cis(np.outer(r * step, turns))
            c *= np.exp(-np.outer(2.0 * r - row, rate))
            m = product[:h * w].reshape(h, w)
            if n_real == 1:     # zgemm over one term takes 2.5x the time of two
                np.multiply.outer(c[:, 0], k[0], out=m)
            else:
                np.matmul(c, k, out=m)
            # row i of the block is m[i, h - 1 - i:][:n_t]
            out[first:first + h] = as_strided(m.ravel()[h - 1:], (h, n_t),
                                              ((w - 1) * m.itemsize, m.itemsize))
        return out
    return fill


def _checked_terms(ensemble: Ensemble, grid: Grid, waiting_time_ps: float,
                   mode: str, laser: LaserSpectrum | None):
    """The ``_pathway_terms`` of a request whose grid steps resolve its
    largest detuning."""
    terms = _pathway_terms(ensemble, mode, laser, grid.frame_thz, waiting_time_ps)
    layout = ensemble.terms
    nyquist = 0.5 / max(grid.tau_step_ps, grid.t_step_ps)
    # every emitting line also excites, and rounding nu - frame is monotonic
    max_det = max(abs(nu - grid.frame_thz) for nu in (layout.nu_exc_thz.min(),
                                                       layout.nu_exc_thz.max()))
    if max_det >= nyquist:
        raise GridTooCoarse(f"largest detuning {max_det:.4g} THz exceeds Nyquist "
                            f"{nyquist:.4g} THz; shrink the grid step")
    return terms


def _route(ensemble: Ensemble, grid: Grid, waiting_time_ps: float, mode: str,
           laser: LaserSpectrum | None):
    """A checked request's ``rows(lo, out)`` (echo route where it pays, else
    dense), which fills one row block: the noise-free complex128 rows
    lo:lo + len(out), lo a first row of ``row_blocks`` and len(out) at most
    its step."""
    terms = _checked_terms(ensemble, grid, waiting_time_ps, mode, laser)
    groups = _echo_groups(*terms()) if grid.tau_step_ps == grid.t_step_ps else None
    if groups is None:
        return _dense_rows(terms, len(ensemble.terms.t2_ps), grid)
    return _echo_rows(groups, grid)


def add_noise(data: np.ndarray, noise_rms: float, noise_seed: int) -> None:
    """Add noise of RMS ``noise_rms`` to the 2D ``data`` by row blocks, all
    real parts first: the stream of two whole-array draws of the seed."""
    if noise_rms <= 0:
        return
    rng = np.random.default_rng(noise_seed)
    scale = noise_rms / math.sqrt(2.0)
    rows = row_blocks(*data.shape)
    draws = np.empty((min(rows.step, len(data)), data.shape[1]))
    for part in (data.real, data.imag):
        for dst in np.split(part, rows[1:]):
            noise = rng.standard_normal(out=draws[:len(dst)])
            dst += np.multiply(noise, scale, out=noise)


def signal_rows(ensemble: Ensemble, grid: Grid, waiting_time_ps: float,
                mode: str, laser: LaserSpectrum | None = None
                ) -> Iterator[tuple[int, np.ndarray]]:
    """The noise-free complex128 signal as (first row, block) pairs, on
    either route: one reused block of the grid's ``row_blocks``, about 64k
    entries, valid until the next pair.  The request is checked at the
    call."""
    rows = _route(ensemble, grid, waiting_time_ps, mode, laser)

    def stream():       # the block is made at the first pair, after the caller's grid
        firsts = row_blocks(grid.n_tau, grid.n_t)
        block = np.empty((min(firsts.step, grid.n_tau), grid.n_t), dtype=complex)
        for lo in firsts:
            yield lo, rows(lo, block[:grid.n_tau - lo])
    return stream()


def synthesize_signal(ensemble: Ensemble, grid: Grid,
                      waiting_time_ps: float, mode: str,
                      laser: LaserSpectrum | None = None,
                      noise_rms: float = 0.0, noise_seed: int = 0,
                      threads: int = 1) -> TimeDomainSignal:
    """Sum pathway responses over the ensemble on a complex64 (tau, t) grid,
    the precision datasets store: the complex128 blocks of ``signal_rows``,
    each cast on store, plus the seeded noise, so a noisy sample is rounded
    twice.  ``threads`` is ignored: synthesis is serial, BLAS uses every
    core."""
    blocks = signal_rows(ensemble, grid, waiting_time_ps, mode, laser)
    data = np.empty((grid.n_tau, grid.n_t), np.complex64)
    for lo, block in blocks:
        data[lo:lo + len(block)] = block
    add_noise(data, noise_rms, noise_seed)
    meta = {"detection_mode": mode, "noise_rms": noise_rms,
            "noise_seed": noise_seed, "n_emitters": len(ensemble)}
    if laser is not None:
        meta.update(laser_center_thz=laser.center_thz, laser_fwhm_thz=laser.fwhm_thz)
    return TimeDomainSignal(data, grid, waiting_time_ps, mode, meta)


def synthesize_diagonal(ensemble: Ensemble, grid: Grid, waiting_time_ps: float,
                        mode: str, laser: LaserSpectrum | None = None,
                        noise_rms: float = 0.0, noise_seed: int = 0) -> np.ndarray:
    """S(tau_k, tau_k), k < n, on the diagonal of a square grid with equal
    steps, without the grid, in O(N log N + G n) for G distinct (delta, T2).
    The checks are those of ``synthesize_signal``, and the noise is what
    ``add_noise`` adds to a complex128 1 x n row of the same ``noise_rms``
    and ``noise_seed``: a noisy grid's lineout in distribution, not in bits,
    since a grid is complex64 and rounds its noisy samples."""
    terms = _checked_terms(ensemble, grid, waiting_time_ps, mode, laser)
    grid.require_square()
    starts, delta, t2, _, weight = _groups(*terms())
    rate = _rates(delta[starts], t2[starts] / 2.0, -1.0)
    weight = np.add.reduceat(weight, starts)
    del starts, delta, t2, _    # the per-term arrays go before the sum
    zero = np.zeros_like(rate)
    data = _phasor_product(lambda lo, hi: (rate[lo:hi], zero[lo:hi], weight[lo:hi]),
                           len(rate), np.empty((grid.n_tau, 1), dtype=complex),
                           grid.tau_step_ps, grid.t_step_ps).reshape(1, grid.n_tau)
    add_noise(data, noise_rms, noise_seed)
    return data[0]


def waiting_time_scan(ensemble: Ensemble, tau0_ps: float, t0_ps: float,
                      waiting_times_ps: Sequence[float], mode: str,
                      laser: LaserSpectrum | None = None,
                      frame_thz: float = 406.770) -> list[tuple[float, complex]]:
    """Complex pathway-sum amplitude at a fixed (tau, t) point versus the
    waiting time.  For a uniform-T1 ensemble |amplitude| decays as exp(-T/T1)."""
    waits = np.asarray(waiting_times_ps, dtype=float)
    if len(waits) == 0 or not np.all(np.isfinite(waits) & (waits >= 0)):
        raise InvalidSpec("waiting times must be a non-empty list of finite values >= 0")
    if not (math.isfinite(tau0_ps) and math.isfinite(t0_ps)):
        raise InvalidSpec(f"delays tau = {tau0_ps} ps, t = {t0_ps} ps must be finite")
    terms = _pathway_terms(ensemble, mode, laser, frame_thz, 0.0)
    layout = ensemble.terms
    chunk = _chunk_terms(len(waits), 1)
    amps = np.zeros((len(waits), 2))
    for first in range(0, len(ensemble), chunk):
        starts = layout.starts[first:first + chunk]
        end = layout.starts[first + chunk] if first + chunk < len(ensemble) else None
        nu_exc, nu_emit, weight, t2 = terms(starts[0], end)
        per_term = weight * np.exp(_rates(nu_exc, t2, 1.0) * tau0_ps
                                   + _rates(nu_emit, t2, -1.0) * t0_ps)
        per_emitter = np.add.reduceat(per_term, starts - starts[0])
        decay = np.multiply.outer(-waits, 1.0 / ensemble.t1_ps[first:first + chunk])
        amps += np.exp(decay, out=decay) @ per_emitter.view(float).reshape(-1, 2)
    return [(float(T), complex(re, im)) for T, (re, im) in zip(waits, amps)]
