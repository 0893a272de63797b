"""Time-domain third-order signal synthesis over an inhomogeneous ensemble.

Everything is computed in a rotating frame at ``grid.frame_thz`` so that
desk-scale grids resolve all detunings.  Each (emitter, pathway) pair
contributes a separable term

    w_det * mu^4 * I(exc) * I(emit) * exp(-T/T1)
        * exp[(+2 pi i d_exc - 1/T2) tau] * exp[(-2 pi i d_emit - 1/T2) t]

where I is the unit-peak laser spectral weight (so the filter equals the
field amplitude to the fourth power for a direct peak), d_* are detunings
from the frame origin, and w_det is 1 for heterodyne detection or the
emitter quantum yield for PL detection.  The pairs come from the static
table ``pathways.REPHASING_PATHWAYS`` applied to the arrays of an
``Ensemble``, with the GSB and SE rows of a direct peak, which share lines,
T2 and weight, summed as one term of twice the weight: eight terms per
four-line emitter, one per two-level one, emitter by emitter in table order.

Two routes evaluate the double sum:

* the dense route, the general path, sums both exponential factors of
  every term over the grid, O(N * n_tau * n_t);
* the difference-axis ("echo") route uses the photon-echo structure of
  the rephasing signal (Siemens et al., Opt. Express 18, 17699 (2010)).
  Terms sharing delta = d_emit - d_exc and T2 sum to
  exp[-(tau + t)/T2 - 2 pi i delta t] * h(tau - t) with
  h(L) = sum_k w_k exp(2 pi i d_exc,k L), so only the n_tau + n_t - 1
  lags of h are summed, O(N * (n_tau + n_t)).

Both call one kernel, ``_phasor_product``, a weighted sum over terms of two
exponential factors on uniform axes: the dense route once, with the tau and
t factors, the echo route once per group, with a coarse and a fine lag
factor.  Each factor is a phasor table exp(z (start + k step)), k = 0..n-1:
a fresh complex exp every 64th row and, between, products with exp(z step),
which add at most ~64 ulp to an entry.  A table of n rows costs
ceil(n/64) + 1 exps per term instead of n, one fewer from start 0 (its first
row is 1), and an exp costs 30-40 ns per element against 1-3 ns for a
multiply (numpy 2.4, x86-64): the dense route takes ceil(n_tau/64) +
ceil(n_t/64) exps per term, the echo route 2 ceil(b/64) + 1 per merged term,
b ~ sqrt(n_tau + n_t).  Tests check both routes against a direct exp at
every grid point.  The kernel takes the terms in chunks of
max(64, 4e6 // max(n_row, n_col)), a size set by the table shape alone,
contracts each chunk as one matrix product and adds the partials in chunk
order: both routes give the same bits for every thread count, and a pool
holds at most 2 * threads chunks at a time, so memory stays flat.

The echo route is taken when the two grid steps are equal and the distinct
(delta, T2) groups are few compared with the terms (constant or class T2,
strain-independent splittings); otherwise, for example with log-normal T2
or unequal steps, the dense route runs.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .emitter import Ensemble, LaserSpectrum
from .errors import EmptyEnsemble, GridTooCoarse, InvalidSpec
from .pathways import REPHASING_PATHWAYS, TWO_LEVEL_PATHWAYS

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

    @property
    def is_square(self) -> bool:
        return self.n_tau == self.n_t and self.tau_step_ps == self.t_step_ps


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


# The merged pathway table: each (excitation, emission) pair of the table
# once, in order, with its multiplicity (2 for a direct peak's GSB and SE).
_MERGED = Counter((exc, emit) for _, exc, emit in REPHASING_PATHWAYS)
_EXCITATION, _EMISSION = np.array(list(_MERGED)).T
_MULTIPLICITY = np.array(list(_MERGED.values()), dtype=float)
_TWO_LEVEL_TERMS = len({row[1:] for row in REPHASING_PATHWAYS[:TWO_LEVEL_PATHWAYS]})


def _pathway_terms(ensemble: Ensemble, mode: str, laser: LaserSpectrum | None,
                   frame_thz: float, waiting_time_ps: float):
    """Per-term arrays (d_exc, d_emit, weight, T2), gathered by (emitter,
    merged row) index; a weight carries its row's multiplicity."""
    counts = np.where(ensemble.two_level, _TWO_LEVEL_TERMS, len(_MULTIPLICITY))
    emitter = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(len(emitter)) - (np.cumsum(counts) - counts).take(emitter)
    exc = 4 * emitter + _EXCITATION.take(row)
    emit = 4 * emitter + _EMISSION.take(row)
    lines = ensemble.lines_thz
    base = (ensemble.quantum_yield if mode == "pl" else 1.0) * ensemble.dipole ** 4 \
        * np.exp(-waiting_time_ps / ensemble.t1_ps)
    weight = base.take(emitter)
    if laser is not None:
        filt = laser.amplitude(lines)
        weight = weight * filt.take(exc) * filt.take(emit)
    weight = (weight * _MULTIPLICITY.take(row)).astype(complex)
    return (lines.take(exc) - frame_thz, lines.take(emit) - frame_thz,
            weight, ensemble.t2_ps.take(emitter))


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
# Entries of each phasor table of one chunk of terms (64 terms at least).
_TABLE_ENTRIES = 4_000_000
_ANCHOR_ROWS = 64


def _phasors(z, n: int, step: float, start: float = 0.0) -> np.ndarray:
    """(n, len(z)) table exp(z (start + k step)), k = 0..n-1: a fresh exp
    every 64th row, repeated multiplication by exp(z step) between.  With
    start 0 the first row is 1 and takes no exp."""
    table = np.empty((n, len(z)), dtype=complex)
    first = _ANCHOR_ROWS if start == 0 else 0
    table[0] = 1.0              # overwritten below unless start is 0
    table[first::_ANCHOR_ROWS] = np.exp(
        np.outer(start + np.arange(first, n, _ANCHOR_ROWS) * step, z))
    ratio = np.exp(z * step)
    for j in range(1, min(n, _ANCHOR_ROWS)):
        rows = table[j::_ANCHOR_ROWS]
        np.multiply(table[j - 1::_ANCHOR_ROWS][:len(rows)], ratio, out=rows)
    return table


def _phasor_product(z_row, n_row: int, row_step: float, row_start: float,
                    z_col, n_col: int, col_step: float, weight,
                    threads: int) -> np.ndarray:
    """(n_row, n_col) sum over terms k of
    weight_k exp(z_row,k (row_start + i row_step)) exp(z_col,k j col_step),
    with chunk partials added in chunk order whatever ``threads`` is."""
    chunk = max(64, _TABLE_ENTRIES // max(n_row, n_col))

    def partial(lo):
        u = _phasors(z_row[lo:lo + chunk], n_row, row_step, row_start)
        u *= weight[lo:lo + chunk]
        return u @ _phasors(z_col[lo:lo + chunk], n_col, col_step).T

    def partials():
        starts = range(0, len(weight), chunk)
        if threads <= 1 or len(starts) == 1:
            yield from map(partial, starts)
            return
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for lo in starts:
                pending.append(pool.submit(partial, lo))
                if len(pending) == 2 * threads:
                    yield pending.popleft().result()
            for fut in pending:
                yield fut.result()

    parts = partials()
    total = next(parts)
    for part in parts:
        total += part
    return total


def _dense_sum(nu_exc, nu_emit, weight, t2, grid: Grid, threads: int) -> np.ndarray:
    """Dense route: both factors of every term, contracted by the phasor
    product.  The general path."""
    return _phasor_product(_rates(nu_exc, t2, 1.0), grid.n_tau, grid.tau_step_ps, 0.0,
                           _rates(nu_emit, t2, -1.0), grid.n_t, grid.t_step_ps,
                           weight, threads)


def _echo_groups(nu_exc, nu_emit, weight, t2):
    """Split the terms into groups of exactly equal (delta, T2), merging
    terms that also share d_exc (those of emitters with identical lines).

    Returns a list of (delta, T2, d_exc array, weight array), or None when
    the groups are too many for the echo route to pay.  delta is the rounded
    difference d_emit - d_exc; with both detunings under Nyquist its
    rounding moves the phase at t by at most 2 pi n_t 2^-53 rad, the size of
    the dense route's own rounding of its exponent.
    """
    delta = nu_emit - nu_exc
    order = np.lexsort((nu_exc, delta, t2))
    delta, t2, nu = delta[order], t2[order], nu_exc[order]
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    new_group[1:] = (delta[1:] != delta[:-1]) | (t2[1:] != t2[:-1])
    n_groups = int(np.count_nonzero(new_group))
    if n_groups * _ECHO_TERMS_PER_GROUP > len(order):
        return None
    new_term = new_group.copy()
    new_term[1:] |= nu[1:] != nu[:-1]
    term_starts = np.flatnonzero(new_term)
    merged = np.add.reduceat(weight[order], term_starts)
    # position of each group's first term among the merged terms
    bounds = np.append(np.flatnonzero(new_group[term_starts]), len(term_starts))
    return [(delta[term_starts[lo]], t2[term_starts[lo]],
             nu[term_starts[lo:hi]], merged[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _echo_sum(groups, grid: Grid, threads: int) -> np.ndarray:
    """Difference-axis route on a grid with equal steps: per group, the lag
    function h(L) on L = tau - t, assembled by a Toeplitz view."""
    n_tau, n_t, step = grid.n_tau, grid.n_t, grid.tau_step_ps
    n_lag = n_tau + n_t - 1
    # lag index p = b * block + j holds L = (p - n_t + 1) * step, so that
    # exp(2 pi i d L) = coarse[b] * fine[j], two phasor tables of about
    # sqrt(n_lag) rows each
    block = math.isqrt(n_lag - 1) + 1
    n_block = -(-n_lag // block)
    # group 0 is written into the output, later ones added via a 64k scratch
    data = np.empty((n_tau, n_t), dtype=complex)
    rows = max(1, 65_536 // n_t)
    scratch = np.empty((min(rows, n_tau), n_t), dtype=complex)
    for g, (delta, t2, nu, weight) in enumerate(groups):
        z = 2j * np.pi * nu
        h = _phasor_product(z, n_block, block * step, -(n_t - 1) * step,
                            z, block, step, weight, threads).ravel()
        # lags[i, j] = h[i - j + n_t - 1]
        lags = sliding_window_view(h[n_lag - 1::-1], n_t)[::-1]
        along_t = np.exp((-2j * np.pi * delta - 1.0 / t2) * grid.t_ps)
        along_tau = np.exp(-grid.tau_ps / t2)[:, None]
        for lo in range(0, n_tau, rows):
            part = scratch[:min(rows, n_tau - lo)] if g else data[lo:lo + rows]
            np.multiply(lags[lo:lo + rows], along_t, out=part)
            part *= along_tau[lo:lo + rows]
            if g:
                data[lo:lo + rows] += part
    return data


def synthesize_signal(ensemble: Ensemble, grid: Grid,
                      waiting_time_ps: float, mode: str,
                      laser: LaserSpectrum | None = None,
                      noise_rms: float = 0.0, noise_seed: int = 0,
                      threads: int = 1) -> TimeDomainSignal:
    """Sum pathway responses over the ensemble on the (tau, t) grid."""
    if mode not in DETECTION_MODES:
        raise InvalidSpec(f"unknown detection mode {mode!r}")
    if len(ensemble) == 0:
        raise EmptyEnsemble("synthesize_signal needs at least one emitter")

    nu_exc, nu_emit, weight, t2 = _pathway_terms(
        ensemble, mode, laser, grid.frame_thz, waiting_time_ps)

    nyquist = 0.5 / max(grid.tau_step_ps, grid.t_step_ps)
    max_det = max(np.abs(nu_exc).max(), np.abs(nu_emit).max())
    if max_det >= nyquist:
        raise GridTooCoarse(f"largest detuning {max_det:.4g} THz exceeds Nyquist "
                            f"{nyquist:.4g} THz; shrink the grid step")

    terms = (nu_exc, nu_emit, weight, t2)
    groups = _echo_groups(*terms) if grid.tau_step_ps == grid.t_step_ps else None
    data = _dense_sum(*terms, grid, threads) if groups is None \
        else _echo_sum(groups, grid, threads)

    if noise_rms > 0:
        rng = np.random.default_rng(noise_seed)
        scale = noise_rms / math.sqrt(2.0)
        data.real += rng.normal(0.0, scale, data.shape)
        data.imag += rng.normal(0.0, scale, data.shape)

    meta = {"detection_mode": mode, "noise_rms": noise_rms,
            "noise_seed": noise_seed, "n_emitters": len(ensemble)}
    if laser is not None:
        meta.update(laser_center_thz=laser.center_thz, laser_fwhm_thz=laser.fwhm_thz)
    return TimeDomainSignal(data, grid, waiting_time_ps, mode, meta)


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
    if len(ensemble) == 0:
        raise EmptyEnsemble("waiting_time_scan needs at least one emitter")

    nu_exc, nu_emit, weight, t2 = _pathway_terms(ensemble, mode, laser, frame_thz, 0.0)
    per_term = weight * np.exp(_rates(nu_exc, t2, 1.0) * tau0_ps
                               + _rates(nu_emit, t2, -1.0) * t0_ps)
    counts = np.where(ensemble.two_level, _TWO_LEVEL_TERMS, len(_MULTIPLICITY))
    per_emitter = np.add.reduceat(per_term, np.cumsum(counts) - counts)
    amps = np.exp(-np.outer(waits, 1.0 / ensemble.t1_ps)) @ per_emitter
    return [(float(T), complex(a)) for T, a in zip(waits, amps)]
