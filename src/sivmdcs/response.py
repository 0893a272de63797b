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
  lags of h are summed, O(N * (n_tau + n_t)).

Both call one kernel, ``_phasor_product``, a weighted sum over terms of two
exponential factors on uniform axes: the dense route per row block, the
echo route once per group, with a coarse and a fine lag factor.  Each
factor is a phasor table from ``blocks.phasors``, shared with the lock-in.
The kernel takes chunks of terms, each building its column table and its
row table from a fresh anchor, and adds the matrix products in chunk order.
``_chunk_terms`` sizes a chunk from the rows: 1 MiB in the larger table, so
that it stays in L2, but at least four times the block's entries; the dense
route sizes it from a whole row block, so a short last block takes the same
chunks.  Zero terms round a chunk up to a multiple of 8
(``_TERM_MULTIPLE``).  Blocks, chunks and anchors follow from the grid
alone, so the bits depend on neither the rows asked for nor the BLAS thread
count, and memory stays flat in the term count, as in
``waiting_time_scan``, which contracts per-emitter sums with real tables of
exp(-T/T1) in chunks of ``_chunk_terms(n_waits, 1)`` emitters.  Tests check
both routes against a direct exp at every grid point.

The echo route is taken when the two grid steps are equal and the distinct
(delta, T2) groups are few compared with the terms (constant or class T2,
strain-independent splittings), else the dense route, for example with
log-normal T2 or unequal steps.  Either gives ``rows(lo, out)``, which fills
one of the grid's ``row_blocks`` in complex128: the echo route from lag
functions built first, through a 1 MiB scratch block, the dense route
beside one chunk's column table (4 MiB at 1024^2).  ``signal_rows`` streams
those blocks through one reused block, and ``synthesize_signal`` casts each
into its complex64 grid, the precision datasets store, and adds the noise.

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
from numpy.lib.stride_tricks import sliding_window_view

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


# The echo route assembles every (delta, T2) group over the whole grid.  For
# 8 groups of m terms on 64^2 to 1024^2 grids it takes 0.8-1.3x the dense
# time at m = 48, 0.7-1.0x at m = 64 and 0.4-0.8x at m = 96: 64 is the
# smallest of these where the echo route is never the slower.
_ECHO_TERMS_PER_GROUP = 64
_TABLE_ENTRIES = BLOCK_ENTRIES  # of a chunk's larger table: 1 MiB
# OpenBLAS's zgemm contracts in blocks of Q = 256 terms and halves a last
# Q < r < 2Q terms at (r + 1) // 2 when threaded but at r // 2 rounded up to
# a multiple of 4 when serial, so those bits follow the BLAS thread count.
# Zero terms up to a multiple of 8 make both split at r / 2 and add zeros.
_TERM_MULTIPLE = 8


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


def _echo_rows(groups, grid: Grid):
    """Difference-axis route on a grid with equal steps: builds every group's
    lag function h(L) on L = tau - t, then returns ``rows(lo, out)``, which
    fills ``out`` with rows lo:lo + len(out) through Toeplitz views of h."""
    n_tau, n_t, step = grid.n_tau, grid.n_t, grid.tau_step_ps
    n_lag = n_tau + n_t - 1
    # lag index p = b * block + j holds L = (p - n_t + 1) * step, so that
    # exp(2 pi i d L) = coarse[b] * fine[j], two phasor tables of about
    # sqrt(n_lag) rows each
    block = math.isqrt(n_lag - 1) + 1
    n_block = -(-n_lag // block)
    factors = []
    for delta, t2, nu, weight in groups:
        z = 2j * np.pi * nu
        h = _phasor_product(lambda lo, hi, z=z, w=weight: (z[lo:hi], z[lo:hi], w[lo:hi]),
                            len(weight), np.empty((n_block, block), dtype=complex),
                            block * step, step, -(n_t - 1) * step).ravel()
        # lags[i, j] = h[i - j + n_t - 1]: row i of h reversed once, read
        # forward from index n_tau - 1 - i
        factors.append((sliding_window_view(h[n_lag - 1::-1].copy(), n_t)[::-1],
                        np.exp((-2j * np.pi * delta - 1.0 / t2) * grid.t_ps),
                        np.exp(-grid.tau_ps / t2)[:, None]))
    # group 0 writes the block, later groups add to it through a scratch
    # block, in group order
    scratch = np.empty((min(row_blocks(n_tau, n_t).step, n_tau), n_t), dtype=complex)

    def fill(lo, out):
        r = slice(lo, lo + len(out))
        for g, (lags, along_t, along_tau) in enumerate(factors):
            part = scratch[:len(out)] if g else out
            np.multiply(lags[r], along_t, out=part)
            part *= along_tau[r]
            if g:
                out += part
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
