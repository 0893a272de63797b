import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensembles
from memory import peak_bytes
from oracles import (direct_waiting_time_scan, exact_dense_sum,
                     gaussian_ensemble_response, lognormal_t2_diagonal_moments,
                     rephasing_response_model, rephasing_response_oracle)
from wide import wide_signal
from sivmdcs.emitter import (GAUSSIAN_FWHM_PER_SIGMA, EnsembleSpec,
                             LaserSpectrum, LevelScheme, PopulationComponent,
                             StrainDistribution, StrainModel, T2Rule,
                             sample_ensemble)
from sivmdcs.errors import (EmptyEnsemble, GridTooCoarse, InvalidSpec,
                            NonSquareGrid)
from sivmdcs import response
from sivmdcs.blocks import BLOCK_ENTRIES, phasors, row_blocks
from sivmdcs.config import parse_config
from sivmdcs.reproduce import DEFAULT_CONFIGS, build_ensemble
from sivmdcs.pathways import REPHASING_PATHWAYS
from sivmdcs.response import (Grid, TimeDomainSignal, _dense_rows, _echo_groups,
                              _echo_rows, _lag_sums, _pathway_terms, _route, add_noise,
                              signal_rows, synthesize_diagonal, synthesize_signal,
                              waiting_time_scan)

FRAME = 406.770


def _emitter(detuning_thz=0.05, t2_ps=122.0, t1_ps=1700.0, yield_=1.0,
             two_level=True):
    """One emitter: two-level at the given detuning, or four-line on the
    default scheme."""
    if two_level:
        return ensembles.two_level(FRAME + detuning_thz, t2_ps, t1_ps, yield_)
    return ensembles.four_line(ensembles.default_scheme(), 1, t2_ps, t1_ps, yield_)


def _whole(rows, grid):
    """The complex128 grid of a route's ``rows(lo, out)``, one row block per
    call."""
    out = np.empty((grid.n_tau, grid.n_t), dtype=complex)
    firsts = row_blocks(grid.n_tau, grid.n_t)
    for lo in firsts:
        rows(lo, out[lo:lo + firsts.step])
    return out


def _dense(terms, grid):
    """The dense route's whole grid over whole per-term arrays."""
    return _whole(_dense_rows(lambda lo=0, hi=None: tuple(a[lo:hi] for a in terms),
                              len(terms[0]), grid), grid)


def _grid(n=16, step=0.5):
    return Grid(n, n, step, step, FRAME)


CONSTANT_T2 = T2Rule("constant", (80.0,))
CLASS_T2 = T2Rule("classes", (40.0, 300.0), (0.6, 0.4))
LOGNORMAL_T2 = T2Rule("lognormal", (60.0,), log_sigma=0.4)


def _mixed_ensemble(hidden_t2, n=240, seed=3):
    """Four-line bright emitters (narrow strain, constant T2) mixed with
    broad two-level ones whose T2 follows ``hidden_t2``."""
    spec = EnsembleSpec((
        PopulationComponent(0.4, StrainDistribution("gaussian", 0.0, 0.03),
                            CONSTANT_T2),
        PopulationComponent(0.6, StrainDistribution("gaussian", 0.05, 0.4),
                            hidden_t2, two_level=True),
    ))
    model = StrainModel(yield_crossover=0.05, yield_steepness=4.0)
    return sample_ensemble(spec, ensembles.default_scheme(), model, n, seed)


def test_grid_validation():
    with pytest.raises(InvalidSpec):
        Grid(0, 8, 1.0, 1.0, FRAME)
    with pytest.raises(InvalidSpec):
        Grid(8, 8, 0.0, 1.0, FRAME)
    with pytest.raises(InvalidSpec):
        Grid(4, 4, math.nan, 1.0, FRAME)
    with pytest.raises(InvalidSpec):
        Grid(4, 4, 1.0, math.inf, FRAME)
    g = Grid(4, 8, 1.0, 0.5, FRAME)
    with pytest.raises(NonSquareGrid):
        g.require_square()
    assert np.allclose(g.tau_ps, [0, 1, 2, 3])
    assert np.allclose(g.t_ps, [0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])


def test_signal_shape_must_match_grid():
    with pytest.raises(InvalidSpec):
        TimeDomainSignal(np.zeros((3, 3), complex), _grid(4), 0.5, "pl")


def test_single_two_level_emitter_matches_closed_form():
    d, t2, t1, wait = 0.07, 40.0, 1700.0, 12.0
    grid = _grid(12, 0.4)
    signal = wide_signal(_emitter(d, t2, t1), grid, wait, "heterodyne")
    tau = grid.tau_ps[:, None]
    t = grid.t_ps[None, :]
    expected = 2.0 * np.exp(-wait / t1) \
        * np.exp((2j * np.pi * d - 1.0 / t2) * tau) \
        * np.exp((-2j * np.pi * d - 1.0 / t2) * t)
    assert np.allclose(signal, expected, rtol=1e-12, atol=1e-15)


def test_single_emitter_matches_density_matrix_oracle():
    d, t2, t1, wait = -0.21, 35.0, 1700.0, 5.0
    grid = _grid(4, 0.7)
    signal = wide_signal(_emitter(d, t2, t1), grid, wait, "heterodyne")
    for i, tau in enumerate(grid.tau_ps):
        for j, t in enumerate(grid.t_ps):
            oracle = rephasing_response_oracle(d, t2, t1, tau, wait, t)
            assert abs(signal[i, j] - oracle) <= 1e-6 * abs(oracle) + 1e-12


def test_pl_mode_weights_by_quantum_yield():
    grid = _grid()
    het = wide_signal(_emitter(yield_=0.3), grid, 0.5, "heterodyne")
    pl = wide_signal(_emitter(yield_=0.3), grid, 0.5, "pl")
    assert np.allclose(pl, 0.3 * het, rtol=1e-12)


def test_laser_filter_applies_per_interaction_pair():
    laser = LaserSpectrum(FRAME, 4.14)
    grid = _grid()
    plain = wide_signal(_emitter(0.3), grid, 0.5, "heterodyne")
    filtered = wide_signal(_emitter(0.3), grid, 0.5, "heterodyne", laser)
    weight = laser.amplitude(FRAME + 0.3) ** 2
    assert np.allclose(filtered, weight * plain, rtol=1e-12)


def test_four_line_emitter_sums_twelve_pathways():
    # at tau = t = 0 every pathway term reduces to its weight
    grid = _grid(2, 0.001)
    signal = wide_signal(_emitter(two_level=False), grid, 0.0, "heterodyne")
    assert signal[0, 0] == pytest.approx(12.0)


# sha256 of two dense complex128 signals (log-normal T2, unequal steps) and
# two echo ones.  On 256 columns the dense sum's 1,390 terms run in chunks of
# 1,024 and 366: products large enough for BLAS to thread, and a last one
# that OpenBLAS's serial and threaded zgemm split at different terms unless
# it is padded; 300 rows take row blocks of 256 and 44 rows.  The second echo
# signal has 300 (delta, T2) groups of 64 terms, so that each of its row
# products contracts over more than 256 groups, the same split
_BLAS_HASHES = """
import hashlib
import numpy as np
from test_response import (CLASS_T2, FRAME, LOGNORMAL_T2, Grid, _echo_groups,
                           _echo_rows, _mixed_ensemble, _whole, wide_signal)
for t2, n_tau, t_step in ((LOGNORMAL_T2, 256, 0.2), (LOGNORMAL_T2, 300, 0.2),
                          (CLASS_T2, 256, 0.25)):
    grid = Grid(n_tau, 256, 0.25, t_step, FRAME)
    data = wide_signal(_mixed_ensemble(t2), grid, 0.5, "heterodyne")
    print(hashlib.sha256(data.tobytes()).hexdigest())
rng = np.random.default_rng(7)         # dyadic detunings: d_emit - d_exc = delta
nu_exc = rng.integers(-2 ** 10, 2 ** 10, 300 * 64) / 2 ** 10
delta = np.repeat(rng.choice(np.arange(-2 ** 9, 2 ** 9), 300, replace=False), 64) / 2 ** 10
groups = _echo_groups(nu_exc, nu_exc + delta, rng.uniform(0.5, 1.0, len(nu_exc)) + 0j,
                      np.full(len(nu_exc), 60.0))
assert len(groups) == 300
grid = Grid(256, 256, 0.25, 0.25, FRAME)
print(hashlib.sha256(_whole(_echo_rows(groups, grid), grid).tobytes()).hexdigest())
"""


def _blas_hashes(blas_threads):
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads))
    done = subprocess.run([sys.executable, "-c", _BLAS_HASHES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_blas_thread_count_does_not_change_bits():
    one = _blas_hashes(1)
    assert len(one) == 4
    assert _blas_hashes(2) == one


def test_noise_is_seeded_and_scaled():
    grid = _grid(64, 0.3)
    quiet = synthesize_signal(_emitter(), grid, 0.5, "heterodyne")
    a = synthesize_signal(_emitter(), grid, 0.5, "heterodyne",
                          noise_rms=2.0, noise_seed=9)
    b = synthesize_signal(_emitter(), grid, 0.5, "heterodyne",
                          noise_rms=2.0, noise_seed=9)
    c = synthesize_signal(_emitter(), grid, 0.5, "heterodyne",
                          noise_rms=2.0, noise_seed=10)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    noise = a.data - quiet.data
    assert np.sqrt(np.mean(np.abs(noise) ** 2)) == pytest.approx(2.0, rel=0.05)


def test_noise_bits_follow_the_seeded_stream():
    # 300 rows span two noise blocks of 218 rows; the real parts take the
    # first n draws of the seed's standard-normal stream, the imaginary
    # parts the next n, on the complex128 rows and on the complex64 grid,
    # which adds them to its cast rows and rounds
    grid = _grid(300, 0.3)
    quiet = wide_signal(_emitter(), grid, 0.5, "heterodyne")
    narrow = synthesize_signal(_emitter(), grid, 0.5, "heterodyne",
                               noise_rms=2.0, noise_seed=9).data
    noisy = quiet.copy()
    add_noise(noisy, 2.0, 9)
    n = 300 * 300
    z = np.random.default_rng(9).standard_normal(2 * n).reshape(2, 300, 300)
    scale = 2.0 / math.sqrt(2.0)
    assert noisy.real.tobytes() == (quiet.real + scale * z[0]).tobytes()
    assert noisy.imag.tobytes() == (quiet.imag + scale * z[1]).tobytes()
    cast = quiet.astype(np.complex64)
    assert narrow.real.tobytes() == (cast.real + scale * z[0]).astype(np.float32).tobytes()
    assert narrow.imag.tobytes() == (cast.imag + scale * z[1]).astype(np.float32).tobytes()


# 100 x 2100 at equal steps: row blocks of 31 rows, the last one 7 rows
SHORT_LAST_BLOCK = Grid(100, 2100, 0.25, 0.25, FRAME)


def _complex64_pair(hidden_t2, **noise):
    """The complex128 rows of one request on SHORT_LAST_BLOCK, and its
    complex64 grid."""
    ensemble, laser = _mixed_ensemble(hidden_t2), LaserSpectrum(FRAME, 0.5)
    return (wide_signal(ensemble, SHORT_LAST_BLOCK, 0.5, "pl", laser),
            synthesize_signal(ensemble, SHORT_LAST_BLOCK, 0.5, "pl", laser, **noise).data)


@pytest.mark.parametrize("hidden_t2,echo", [(CONSTANT_T2, True), (LOGNORMAL_T2, False)])
def test_a_complex64_grid_is_the_complex128_grid_cast(hidden_t2, echo):
    terms = _pathway_terms(_mixed_ensemble(hidden_t2), "pl", LaserSpectrum(FRAME, 0.5),
                           FRAME, 0.5)()
    assert (_echo_groups(*terms) is not None) == echo
    assert row_blocks(SHORT_LAST_BLOCK.n_tau, SHORT_LAST_BLOCK.n_t).step == 31
    wide, narrow = _complex64_pair(hidden_t2)
    assert narrow.dtype == np.complex64
    assert narrow.tobytes() == wide.astype(np.complex64).tobytes()


@pytest.mark.parametrize("hidden_t2", [CONSTANT_T2, LOGNORMAL_T2])
@pytest.mark.parametrize("noise_rms", [1e-3, 1.0, 100.0])
def test_a_noisy_complex64_grid_is_rounded_twice(hidden_t2, noise_rms):
    # the noise goes onto the cast grid: each float32 part is the float64 sum
    # of the cast part and its draw, rounded, so it is within one float32 ulp
    # of the cast of the noisy complex128 rows, an ulp of the larger of the
    # noise-free and the noisy part (where a draw cancels the part, the
    # result's own ulp is far finer)
    wide, narrow = _complex64_pair(hidden_t2, noise_rms=noise_rms, noise_seed=9)
    clean = wide.astype(np.complex64)
    z = np.random.default_rng(9).standard_normal((2, *clean.shape))
    scale = noise_rms / math.sqrt(2.0)
    assert narrow.real.tobytes() == (clean.real + scale * z[0]).astype(np.float32).tobytes()
    assert narrow.imag.tobytes() == (clean.imag + scale * z[1]).astype(np.float32).tobytes()
    add_noise(wide, noise_rms, 9)
    cast, clean, narrow = (a.view(np.float32) for a in (wide.astype(np.complex64), clean, narrow))
    ulp = np.spacing(np.maximum(np.abs(clean), np.abs(cast)))
    assert np.all(np.abs(narrow.astype(float) - cast) <= ulp)


def test_grid_too_coarse_raises():
    with pytest.raises(GridTooCoarse):
        synthesize_signal(_emitter(detuning_thz=1.2), _grid(8, 0.5), 0.5,
                          "heterodyne")


def test_mode_and_ensemble_validation():
    with pytest.raises(InvalidSpec):
        synthesize_signal(_emitter(), _grid(), 0.5, "fluorescence")
    with pytest.raises(EmptyEnsemble):
        synthesize_signal(ensembles.two_level([]), _grid(), 0.5, "pl")


def test_waiting_time_scan_recovers_t1():
    ensemble = ensembles.two_level([FRAME + 0.01] * 5, 122.0, 1700.0)
    waits = np.arange(0.0, 4000.1, 500.0)
    scan = waiting_time_scan(ensemble, 2.0, 2.0, waits, "heterodyne",
                             frame_thz=FRAME)
    amps = np.array([abs(a) for _, a in scan])
    ratios = amps[:-1] / amps[1:]
    assert np.allclose(np.log(ratios), 500.0 / 1700.0, rtol=1e-10)


def test_waiting_time_scan_matches_per_term_sum_with_two_t1():
    # both emitter kinds at each of two T1 values, so a scan that gave any
    # emitter another's T1 would move the decay
    rng = np.random.default_rng(8)
    scheme = ensembles.default_scheme()
    ens = ensembles.concat(
        ensembles.two_level(FRAME + rng.normal(0.0, 0.1, 5), 40.0, 1000.0, 0.6),
        ensembles.four_line(scheme, 2, 90.0, 1700.0, 0.9),
        ensembles.two_level(FRAME + rng.normal(0.0, 0.1, 4), 70.0, 1700.0, 0.3),
        ensembles.four_line(scheme, 3, 55.0, 1000.0, 0.5))
    laser = LaserSpectrum(FRAME, 0.5)
    tau0, t0 = 1.3, 2.1
    waits = [0.0, 150.0, 700.0, 2500.0]
    for mode in ("pl", "heterodyne"):
        scan = waiting_time_scan(ens, tau0, t0, waits, mode, laser, FRAME)
        want = direct_waiting_time_scan(ens, tau0, t0, waits, mode, laser, FRAME)
        for (T, amp), T_want, a_want in zip(scan, waits, want):
            assert T == T_want
            assert abs(amp - a_want) <= 1e-12 * abs(a_want)


def test_waiting_time_scan_validation():
    with pytest.raises(InvalidSpec):
        waiting_time_scan(_emitter(), 1.0, 1.0, [], "pl")
    with pytest.raises(InvalidSpec):
        waiting_time_scan(_emitter(), 1.0, 1.0, [-1.0], "pl")
    with pytest.raises(EmptyEnsemble):
        waiting_time_scan(ensembles.two_level([]), 1.0, 1.0, [0.0], "pl")


def test_waiting_time_scan_rejects_an_unknown_mode():
    # the mode check of synthesis: "bogus" is not read as heterodyne
    with pytest.raises(InvalidSpec, match="detection mode"):
        waiting_time_scan(_emitter(), 2.0, 2.0, [0.0, 100.0], "bogus")


# --- difference-axis (echo) route against the dense reference --------------

@pytest.mark.parametrize("shape", [(24, 40), (40, 24), (16, 4200)])
@pytest.mark.parametrize("mode", ["pl", "heterodyne"])
@pytest.mark.parametrize("laser", [None, LaserSpectrum(FRAME, 0.5)])
@pytest.mark.parametrize("hidden_t2", [CONSTANT_T2, CLASS_T2])
def test_echo_route_matches_dense_reference(shape, mode, laser, hidden_t2):
    ensemble = _mixed_ensemble(hidden_t2)
    grid = Grid(*shape, 0.25, 0.25, FRAME)
    terms = _pathway_terms(ensemble, mode, laser, FRAME, 0.5)()
    groups = _echo_groups(*terms)
    assert groups is not None
    signal = wide_signal(ensemble, grid, 0.5, mode, laser)
    assert np.array_equal(signal, _whole(_echo_rows(groups, grid), grid))
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)
    assert np.abs(signal - exact).max() <= 1e-10 * np.abs(exact).max()


# dyadic turns per lag and lags on a 0.25 ps step, so that the direct sum's
# phases are exact: the gridding's own error is all that remains
@pytest.mark.parametrize("n_lag", [1, 2, 3, 64, 1023, 1024])
@pytest.mark.parametrize("case", ["one term", "mixed phase", "wrap"])
@pytest.mark.parametrize("step", [0.25, -0.25])
def test_lag_sums_meet_their_bound(n_lag, case, step):
    rng = np.random.default_rng(n_lag)
    turns = {"one term": np.array([0.3125]),
             "mixed phase": rng.integers(-2 ** 19 + 1, 2 ** 19, 300) / 2 ** 20,
             # |nu step| up to 1/2 - 2^-30: terms at both ends of the periodic grid
             "wrap": np.array([0.5 - 2 ** -20, -0.5 + 2 ** -20, 0.5 - 2 ** -30,
                               -0.5 + 2 ** -30, 0.0])}[case]
    weight = rng.normal(size=len(turns)) + 1j * rng.normal(size=len(turns))
    first = 0.75 - (n_lag // 2) * step          # the middle lag is 0.75 ps
    lags = first / step + np.arange(n_lag)      # L_p / step, whole numbers
    direct = np.exp(2j * np.pi * (np.outer(lags, turns) % 1.0)) @ weight
    h = _lag_sums(turns / step, weight, n_lag, step, first)
    assert h.shape == (n_lag,)
    assert np.abs(h - direct).max() <= 1e-13 * np.abs(weight).sum()


@pytest.mark.parametrize("kept", [(0, 1, 2), (0,), (1,)])
def test_echo_route_matches_the_exact_sum_at_a_t2_of_a_fiftieth_step(kept):
    # T2 = step / 50 in group 0 takes products of 5 rows, so that K's
    # exp((h - 1) step / T2) stays finite; the 60 ps groups carry the signal.
    # A group alone takes an outer product in place of zgemm.
    rng = np.random.default_rng(8)
    grid = Grid(40, 24, 0.25, 0.25, FRAME)
    nu_exc = rng.integers(-2 ** 10, 2 ** 10, 3 * 64) / 2 ** 10   # d_emit - d_exc = delta
    delta = np.repeat([0.0, 0.3125, -0.1875], 64)
    t2 = np.repeat([0.25 / 50, 60.0, 60.0], 64)
    terms = (nu_exc, nu_exc + delta, rng.uniform(0.5, 1.0, len(nu_exc)) + 0j, t2)
    keep = np.isin(np.repeat([0, 1, 2], 64), kept)
    terms = tuple(a[keep] for a in terms)
    groups = _echo_groups(*terms)
    assert groups is not None and len(groups) == len(kept)
    data = _whole(_echo_rows(groups, grid), grid)
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)
    assert np.isfinite(data).all()
    assert np.abs(data - exact).max() <= 1e-10 * np.abs(exact).max()


def test_echo_route_memory_is_flat_in_the_term_count(monkeypatch):
    # one group of 2,048 or 4,096 terms, spread in chunks of 64: a lag sum
    # that kept each chunk's 36 KiB of tables would add 1 MiB between them
    monkeypatch.setattr(response, "_chunk_terms", lambda n_row, n_col: 64)
    rng = np.random.default_rng(9)
    grid = Grid(256, 256, 0.25, 0.25, FRAME)
    peaks = []
    for n in (32 * 64, 64 * 64):
        groups = [(0.0, 60.0, rng.uniform(-1.0, 1.0, n), np.ones(n, dtype=complex))]
        peaks.append(peak_bytes(lambda: _whole(_echo_rows(groups, grid), grid)))
    assert peaks[1] <= 1.1 * peaks[0]


# (40, 2000) gives row blocks of 32 rows with a short last block, on the
# echo route (constant T2) and on the dense route (log-normal T2) alike
@pytest.mark.parametrize("hidden_t2", [CONSTANT_T2, LOGNORMAL_T2])
def test_signal_rows_concatenate_to_the_noise_free_signal(hidden_t2):
    # the reused block holds the bits that the route writes to fresh rows
    ensemble = _mixed_ensemble(hidden_t2)
    grid = Grid(40, 2000, 0.25, 0.25, FRAME)
    laser = LaserSpectrum(FRAME, 0.5)
    whole = _whole(_route(ensemble, grid, 0.5, "pl", laser), grid)
    firsts, blocks = [], []
    for first, block in signal_rows(ensemble, grid, 0.5, "pl", laser):
        firsts.append(first)
        blocks.append(block.copy())
    assert len(blocks) == 2
    assert firsts == list(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_dense_signal_rows_are_at_most_a_row_block_tall():
    # 100 x 2100 at unequal steps: the dense route in row blocks of 31 rows,
    # the last one 7 rows, each filled in the one reused block
    ensemble = _mixed_ensemble(LOGNORMAL_T2)
    grid = Grid(100, 2100, 0.25, 0.2, FRAME)
    assert row_blocks(grid.n_tau, grid.n_t).step == 31
    heights, buffers = [], set()
    for _, block in signal_rows(ensemble, grid, 0.5, "heterodyne"):
        heights.append(len(block))
        buffers.add(block.__array_interface__["data"][0])
    assert heights == [31, 31, 31, 7] and len(buffers) == 1


def test_a_dense_grid_takes_one_complex64_grid_and_7_mib():
    # fig3's 1024^2 grid with log-normal T2 (6,000 terms) on the dense route:
    # the complex64 signal plus 7 MiB, one chunk's 4 MiB column table and
    # up to three 1 MiB blocks: the streamed block, a row block's partial
    # and its row table (the whole-grid phasor tables took 144 MiB)
    text = DEFAULT_CONFIGS["fig3"].replace("t2 = 20 ps", "t2 = lognormal 20 ps 0.3")
    cfg = parse_config(text)
    ensemble = build_ensemble(cfg)
    ensemble.terms       # the layout belongs to the ensemble, not to the call
    terms = _pathway_terms(ensemble, "heterodyne", cfg.laser, cfg.grid.frame_thz,
                           cfg.waiting_time_ps)()
    assert len(terms[0]) == 6000 and _echo_groups(*terms) is None
    del terms
    grid_bytes = 8 * cfg.grid.n_tau * cfg.grid.n_t
    peak = peak_bytes(lambda: synthesize_signal(ensemble, cfg.grid, cfg.waiting_time_ps,
                                                "heterodyne", cfg.laser))
    assert peak <= grid_bytes + 7 * BLOCK_ENTRIES * 16


@pytest.mark.parametrize("two_level", [True, False])
def test_echo_route_sums_identical_emitters(two_level):
    # 64 copies of one emitter: every (delta, T2) group holds 64 exact ties
    # of d_exc, summed term by term on the echo route
    one = _emitter(two_level=two_level)
    ensemble = ensembles.concat(*[one] * 64)
    grid = Grid(24, 40, 0.25, 0.25, FRAME)
    terms = _pathway_terms(ensemble, "heterodyne", None, FRAME, 0.5)()
    assert _echo_groups(*terms) is not None
    data = wide_signal(ensemble, grid, 0.5, "heterodyne")
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)
    bound = 1e-10 * np.abs(exact).max()
    assert np.abs(data - exact).max() <= bound
    single = wide_signal(one, grid, 0.5, "heterodyne")
    assert np.abs(data - 64 * single).max() <= bound


@pytest.mark.parametrize("hidden_t2,grid", [
    (LOGNORMAL_T2, Grid(24, 40, 0.25, 0.25, FRAME)),
    (CONSTANT_T2, Grid(24, 40, 0.25, 0.2, FRAME)),
])
def test_dense_only_inputs_give_dense_bits(hidden_t2, grid):
    ensemble = _mixed_ensemble(hidden_t2)
    terms = _pathway_terms(ensemble, "heterodyne", None, FRAME, 0.5)()
    signal = wide_signal(ensemble, grid, 0.5, "heterodyne")
    assert np.array_equal(signal, _dense(terms, grid))
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)
    assert np.abs(signal - exact).max() <= 1e-12 * np.abs(exact).max()


# --- the phasor-product kernel over many chunks -----------------------------

@pytest.mark.parametrize("grid,bound", [
    (Grid(24, 40, 0.25, 0.25, FRAME), 1e-10),     # echo route
    (Grid(24, 40, 0.25, 0.2, FRAME), 1e-12),      # dense route
])
def test_many_chunks_match_the_exact_sum(monkeypatch, grid, bound):
    # 64-term chunks: each echo group (182 to 513 merged terms) and the
    # dense sum (1390 terms) span at least three of them
    monkeypatch.setattr(response, "_chunk_terms", lambda n_row, n_col: 64)
    ensemble = _mixed_ensemble(CONSTANT_T2)
    laser = LaserSpectrum(FRAME, 0.5)
    terms = _pathway_terms(ensemble, "pl", laser, FRAME, 0.5)()
    groups = _echo_groups(*terms)
    if grid.tau_step_ps == grid.t_step_ps:
        assert min(len(nu) for _, _, nu, _ in groups) > 2 * 64
    assert len(terms[0]) >= 3 * 64
    data = wide_signal(ensemble, grid, 0.5, "pl", laser)
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)
    assert np.abs(data - exact).max() <= bound * np.abs(exact).max()


def test_phasor_product_memory_is_flat_in_the_term_count(monkeypatch):
    # 64-term chunks with 1 MiB partials: a sum that held every partial
    # would double its peak from 32 to 64 chunks
    monkeypatch.setattr(response, "_chunk_terms", lambda n_row, n_col: 64)
    rng = np.random.default_rng(4)
    grid = Grid(256, 256, 0.25, 0.2, FRAME)
    peaks = []
    for n in (32 * 64, 64 * 64):
        terms = (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
                 np.ones(n, dtype=complex), np.full(n, 60.0))
        peaks.append(peak_bytes(lambda: _dense(terms, grid)))
    assert peaks[1] <= 1.5 * peaks[0]


def test_small_output_tables_do_not_grow_with_the_term_count():
    # a 6 x 5 grid: the phasor tables of each chunk stay at the fixed
    # budget whether the ensemble gives 20k or 80k terms, and the rates and
    # weights are built chunk by chunk, so nothing grows with N
    rng = np.random.default_rng(6)
    grid = Grid(6, 5, 0.05, 0.04, FRAME)
    tables = []
    for n in (20_000, 80_000):
        terms = (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
                 np.ones(n, dtype=complex), rng.lognormal(3.0, 0.5, n))
        tables.append(peak_bytes(lambda: _dense(terms, grid)))
    assert tables[1] <= 1.1 * tables[0]


@pytest.mark.parametrize("mode", ["pl", "heterodyne"])
@pytest.mark.parametrize("grid", [
    Grid(1100, 24, 0.25, 0.25, FRAME),      # equal steps, long tau axis
    Grid(24, 1100, 0.25, 0.2, FRAME),       # unequal steps, long t axis
    Grid(130, 1030, 0.2, 0.25, FRAME),      # both axes past one anchor block
])
def test_dense_sum_matches_exact_reference(mode, grid):
    # log-normal T2: every term has its own decay
    ensemble = _mixed_ensemble(LOGNORMAL_T2)
    terms = _pathway_terms(ensemble, mode, LaserSpectrum(FRAME, 0.5), FRAME, 0.5)()
    dense = _dense(terms, grid)
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)
    assert np.abs(dense - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1024, 8447])
@pytest.mark.parametrize("echo_start", [False, True])
def test_phasor_table_error_is_bounded_by_direct_exp(n, echo_start):
    # detunings up to the Nyquist limit of a 0.25 ps step, with and without
    # decay; the start is the first lag of an n-point echo axis
    rng = np.random.default_rng(n)
    step = 0.25
    start = -(n - 1) * step if echo_start else 0.0
    rate = np.where(np.arange(64) % 2, 1.0 / rng.lognormal(np.log(60.0), 0.4, 64), 0.0)
    z = 2j * np.pi * rng.uniform(-1.9, 1.9, 64) - rate
    k = np.arange(n, dtype=np.longdouble)[:, None]
    exact = np.exp(z.astype(np.clongdouble)
                   * (np.longdouble(start) + k * np.longdouble(step)))

    def error(table):
        return float(np.max(np.abs(table - exact) / np.abs(exact)))

    direct = np.exp(np.outer(start + np.arange(n) * step, z))
    assert error(phasors(z, n, step, start)) <= error(direct) + 1.5e-14


def test_gaussian_ensemble_matches_closed_form():
    # heterodyne two-level ensemble, detunings N(nu0, sigma^2), no laser
    nu0, fwhm, t2, t1, wait, n = 0.03, 0.2, 50.0, 1700.0, 40.0, 4000
    spec = EnsembleSpec((PopulationComponent(
        1.0, StrainDistribution("gaussian", 0.0, fwhm),
        T2Rule("constant", (t2,)), t1_ns=t1 * 1e-3, two_level=True),))
    base = LevelScheme(FRAME + nu0, 59.0, 261.0)
    ensemble = sample_ensemble(spec, base, StrainModel(), n, seed=3)
    grid = _grid(16, 0.5)
    signal = wide_signal(ensemble, grid, wait, "heterodyne")
    sigma = fwhm / GAUSSIAN_FWHM_PER_SIGMA
    for i, j in ((0, 0), (3, 3), (6, 2), (2, 6), (9, 4), (15, 15), (12, 0)):
        tau, t = grid.tau_ps[i], grid.t_ps[j]
        expected = gaussian_ensemble_response(nu0, sigma, t2, t1, tau, wait, t)
        bound = 5.0 * 2.0 * np.exp(-wait / t1 - (tau + t) / t2) / np.sqrt(n)
        got = signal[i, j] / n
        assert abs(got.real - expected.real) <= bound
        assert abs(got.imag - expected.imag) <= bound


def test_monte_carlo_error_converges_as_inverse_sqrt_n():
    # RMS deviation from the Gaussian closed form over the grid and 16 seeds
    # per ensemble size; Monte Carlo error falls as N^-1/2
    nu0, fwhm, t2, t1, wait = 0.03, 0.2, 50.0, 1700.0, 40.0
    spec = EnsembleSpec((PopulationComponent(
        1.0, StrainDistribution("gaussian", 0.0, fwhm),
        T2Rule("constant", (t2,)), t1_ns=t1 * 1e-3, two_level=True),))
    base = LevelScheme(FRAME + nu0, 59.0, 261.0)
    grid = _grid(16, 0.5)
    tau, t = grid.tau_ps[:, None], grid.t_ps[None, :]
    sigma = fwhm / GAUSSIAN_FWHM_PER_SIGMA
    expected = np.vectorize(gaussian_ensemble_response)(nu0, sigma, t2, t1,
                                                         tau, wait, t)
    scale = 2.0 * np.exp(-wait / t1 - (tau + t) / t2)
    sizes = (250, 1000, 4000)
    errors = []
    for k, n in enumerate(sizes):
        sq = [np.mean(np.abs(wide_signal(
            sample_ensemble(spec, base, StrainModel(), n, seed=16 * k + s),
            grid, wait, "heterodyne") / n - expected) ** 2 / scale ** 2)
            for s in range(16)]
        errors.append(np.sqrt(np.mean(sq)))
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def _twelve_row_terms(ens, mode, laser, wait):
    """Per-term arrays with one term per pathway-table row, GSB and SE
    apart, built one row at a time."""
    terms = []
    for i in range(len(ens)):
        lines = ens.lines_thz[i]
        rows = REPHASING_PATHWAYS[:2] if ens.two_level[i] else REPHASING_PATHWAYS
        base = (ens.quantum_yield[i] if mode == "pl" else 1.0) \
            * ens.dipole[i] ** 4 * math.exp(-wait / ens.t1_ps[i])
        for _, exc, emit in rows:
            filt = 1.0 if laser is None else \
                laser.amplitude(lines[exc]) * laser.amplitude(lines[emit])
            terms.append((lines[exc] - FRAME, lines[emit] - FRAME,
                          base * filt, ens.t2_ps[i]))
    nu_exc, nu_emit, weight, t2 = np.array(terms).T
    return nu_exc, nu_emit, weight.astype(complex), t2


def test_pathway_terms_layout_on_mixed_ensemble():
    # terms come emitter by emitter in merged-table order: 8 for a four-line
    # emitter, 1 for a two-level one, each with its row multiplicity (2 for
    # a direct peak's GSB + SE), rebuilt here one term at a time
    ens = _mixed_ensemble(CLASS_T2, n=9, seed=2)
    assert 0 < np.count_nonzero(ens.two_level) < len(ens)
    laser = LaserSpectrum(FRAME, 0.5)
    wait = 300.0
    nu_exc, nu_emit, weight, t2 = _pathway_terms(ens, "pl", laser, FRAME, wait)()
    want = []
    for i in range(len(ens)):
        lines = ens.lines_thz[i]
        rows = REPHASING_PATHWAYS[:2] if ens.two_level[i] else REPHASING_PATHWAYS
        merged = {}
        for _, exc, emit in rows:
            merged[exc, emit] = merged.get((exc, emit), 0) + 1
        base = ens.quantum_yield[i] * ens.dipole[i] ** 4 \
            * math.exp(-wait / ens.t1_ps[i])
        for (exc, emit), multiplicity in merged.items():
            want.append((lines[exc] - FRAME, lines[emit] - FRAME,
                         base * laser.amplitude(lines[exc])
                         * laser.amplitude(lines[emit]) * multiplicity,
                         ens.t2_ps[i]))
    want = np.array(want).T
    assert len(nu_exc) == 8 * np.count_nonzero(~ens.two_level) \
        + np.count_nonzero(ens.two_level)
    assert np.array_equal(nu_exc, want[0])
    assert np.array_equal(nu_emit, want[1])
    assert np.array_equal(t2, want[3])
    assert weight.dtype == complex and np.all(weight.imag == 0)
    assert np.allclose(weight.real, want[2], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("mode", ["pl", "heterodyne"])
@pytest.mark.parametrize("laser", [None, LaserSpectrum(FRAME, 0.5)])
def test_merged_terms_match_the_twelve_row_expansion(mode, laser):
    ens = _mixed_ensemble(CLASS_T2, n=60, seed=6)
    grid = Grid(24, 40, 0.25, 0.2, FRAME)
    merged = _pathway_terms(ens, mode, laser, FRAME, 40.0)()
    twelve = _twelve_row_terms(ens, mode, laser, 40.0)
    assert len(twelve[0]) == 12 * np.count_nonzero(~ens.two_level) \
        + 2 * np.count_nonzero(ens.two_level)
    want = exact_dense_sum(*twelve, grid.tau_ps, grid.t_ps)
    got = exact_dense_sum(*merged, grid.tau_ps, grid.t_ps)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("mode", ["pl", "heterodyne"])
def test_waiting_time_scan_on_mixed_ensemble_with_two_t1_classes(mode):
    spec = EnsembleSpec((
        PopulationComponent(0.4, StrainDistribution("gaussian", 0.0, 0.03),
                            CONSTANT_T2, t1_ns=1.0),
        PopulationComponent(0.6, StrainDistribution("gaussian", 0.05, 0.4),
                            CLASS_T2, t1_ns=2.5, two_level=True),
    ))
    model = StrainModel(yield_crossover=0.05, yield_steepness=4.0)
    ens = sample_ensemble(spec, ensembles.default_scheme(), model, 80, seed=4)
    assert len(set(ens.t1_ps)) == 2
    laser = LaserSpectrum(FRAME, 0.5)
    tau0, t0 = 1.3, 2.1
    waits = [0.0, 400.0, 3000.0]
    want = direct_waiting_time_scan(ens, tau0, t0, waits, mode, laser, FRAME)
    for (T, amp), a_want in zip(waiting_time_scan(ens, tau0, t0, waits, mode,
                                                  laser, FRAME), want):
        assert abs(amp - a_want) <= 1e-12 * abs(a_want)


def _three_t1_ensemble(n=60, seed=9):
    """Bright four-line, hidden two-level and log-normal-T2 four-line
    emitters, each component with its own T1."""
    spec = EnsembleSpec((
        PopulationComponent(0.3, StrainDistribution("gaussian", 0.0, 0.03),
                            CONSTANT_T2, t1_ns=1.0),
        PopulationComponent(0.3, StrainDistribution("gaussian", 0.05, 0.4),
                            CLASS_T2, t1_ns=2.5, two_level=True),
        PopulationComponent(0.4, StrainDistribution("gaussian", -0.02, 0.1),
                            LOGNORMAL_T2, t1_ns=0.6),
    ))
    model = StrainModel(yield_crossover=0.05, yield_steepness=4.0)
    return sample_ensemble(spec, ensembles.default_scheme(), model, n, seed)


@pytest.mark.parametrize("mode", ["pl", "heterodyne"])
@pytest.mark.parametrize("patch", [("_chunk_terms", lambda n_row, n_col: 3),
                                   ("_TABLE_ENTRIES", 32)])
def test_waiting_time_scan_in_small_chunks_matches_per_term_sum(monkeypatch,
                                                                mode, patch):
    # 3-emitter chunks, or a 32-entry table budget that the 40 waiting times
    # exceed, so that the large-output guard gives 4-emitter chunks
    monkeypatch.setattr(response, *patch)
    ens = _three_t1_ensemble()
    assert len(set(ens.t1_ps)) == 3 and 0 < np.count_nonzero(ens.two_level) < len(ens)
    waits = np.linspace(0.0, 4000.0, 40)
    assert response._chunk_terms(len(waits), 1) <= 4
    laser = LaserSpectrum(FRAME, 0.5)
    tau0, t0 = 1.3, 2.1
    nu_exc, nu_emit, weight, t2 = _twelve_row_terms(ens, mode, laser, 0.0)
    per_term = weight * np.exp((2j * np.pi * nu_exc - 1.0 / t2) * tau0
                               + (-2j * np.pi * nu_emit - 1.0 / t2) * t0)
    t1 = np.repeat(ens.t1_ps, np.where(ens.two_level, 2, 12))
    want = np.exp(-np.outer(waits, 1.0 / t1)) @ per_term
    scan = waiting_time_scan(ens, tau0, t0, waits, mode, laser, FRAME)
    assert [T for T, _ in scan] == waits.tolist()
    got = np.array([amp for _, amp in scan])
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_waiting_time_scan_memory_is_flat_in_waits_times_emitters():
    # one (n_waits, n_emitters) table of decays would take 6.4 MB at the
    # first size and 102 MB at the second; in chunks of the table budget,
    # the peak grows only with n_waits + n_emitters
    laser = LaserSpectrum(FRAME, 0.5)
    peaks = []
    for n_waits, n in ((400, 2000), (1600, 8000)):
        ens = ensembles.two_level(FRAME + np.linspace(-0.2, 0.2, n))
        ens.terms       # the layout belongs to the ensemble, not to the scan
        waits = np.linspace(0.0, 4000.0, n_waits)
        peaks.append(peak_bytes(lambda: waiting_time_scan(
            ens, 1.0, 1.0, waits, "heterodyne", laser, FRAME)))
    assert peaks[1] <= 4 * peaks[0]
    assert peaks[1] <= 1600 * 8000 * 8 / 16


def test_phasor_table_from_zero_starts_at_exactly_one():
    rng = np.random.default_rng(2)
    z = 2j * np.pi * rng.uniform(-1.9, 1.9, 32) - 1.0 / rng.uniform(20.0, 300.0, 32)
    for n in (1, 64, 200):
        table = phasors(z, n, 0.25, 0.0)
        assert np.array_equal(table[0], np.ones(32))


# --- the tau = t diagonal without the grid -----------------------------------

@pytest.mark.parametrize("mode", ["pl", "heterodyne"])
@pytest.mark.parametrize("laser", [None, LaserSpectrum(FRAME, 0.5)])
@pytest.mark.parametrize("hidden_t2,bound", [(CLASS_T2, 1e-10), (LOGNORMAL_T2, 1e-12)])
def test_diagonal_matches_the_grid_and_the_exact_sum(mode, laser, hidden_t2, bound):
    # 130 points span three anchor blocks of the phasor table; the bounds
    # are those of the echo and dense grid routes that the two T2 rules take
    ensemble = _mixed_ensemble(hidden_t2)
    grid = _grid(130, 0.25)
    diagonal = synthesize_diagonal(ensemble, grid, 0.5, mode, laser)
    assert diagonal.shape == (130,)
    k = np.arange(130)
    signal = wide_signal(ensemble, grid, 0.5, mode, laser)[k, k]
    terms = _pathway_terms(ensemble, mode, laser, FRAME, 0.5)()
    exact = exact_dense_sum(*terms, grid.tau_ps, grid.t_ps)[k, k]
    for want in (exact, signal):
        assert np.abs(diagonal - want).max() <= bound * np.abs(want).max()


def test_diagonal_noise_is_that_of_a_one_row_grid():
    # the noisy diagonal and a noisy complex128 1 x n row each add the
    # seed's stream, real parts first, to their own noise-free values
    ensemble = _mixed_ensemble(CLASS_T2)
    n, rms, seed = 300, 2.0, 9
    quiet = synthesize_diagonal(ensemble, _grid(n, 0.25), 0.5, "pl")
    noisy = synthesize_diagonal(ensemble, _grid(n, 0.25), 0.5, "pl",
                                noise_rms=rms, noise_seed=seed)
    row_quiet = wide_signal(ensemble, Grid(1, n, 0.25, 0.25, FRAME), 0.5, "pl")
    row_noisy = row_quiet.copy()
    add_noise(row_noisy, rms, seed)
    row_quiet, row_noisy = row_quiet[0], row_noisy[0]
    z = np.random.default_rng(seed).standard_normal(2 * n).reshape(2, n)
    scale = rms / math.sqrt(2.0)
    for clean, dirty in ((quiet, noisy), (row_quiet, row_noisy)):
        assert dirty.real.tobytes() == (clean.real + scale * z[0]).tobytes()
        assert dirty.imag.tobytes() == (clean.imag + scale * z[1]).tobytes()


def test_diagonal_validation():
    with pytest.raises(NonSquareGrid):
        synthesize_diagonal(_emitter(), Grid(16, 16, 0.5, 0.4, FRAME), 0.5, "pl")
    with pytest.raises(NonSquareGrid):
        synthesize_diagonal(_emitter(), Grid(16, 12, 0.5, 0.5, FRAME), 0.5, "pl")
    with pytest.raises(InvalidSpec):
        synthesize_diagonal(_emitter(), _grid(), 0.5, "fluorescence")
    with pytest.raises(EmptyEnsemble):
        synthesize_diagonal(ensembles.two_level([]), _grid(), 0.5, "pl")
    with pytest.raises(GridTooCoarse):
        synthesize_diagonal(_emitter(detuning_thz=1.2), _grid(8, 0.5), 0.5,
                            "heterodyne")


def test_diagonal_memory_builds_no_term_by_point_table():
    # 6000 log-normal T2 values give 6000 merged terms; an n x N phasor
    # table of the 1024-point diagonal would take 94 MiB
    rng = np.random.default_rng(12)
    n = 6000
    ensemble = ensembles.two_level(FRAME + rng.normal(0.0, 0.2, n),
                                   60.0 * rng.lognormal(0.0, 0.4, n))
    ensemble.terms      # the layout belongs to the ensemble, not to the call
    grid = _grid(1024, 0.25)
    assert peak_bytes(lambda: synthesize_diagonal(ensemble, grid, 0.5, "heterodyne",
                                                  LaserSpectrum(FRAME, 0.5))) <= 2 * 2**20


def _lognormal_two_level(n, seed, median_t2, log_sigma, t1):
    """``n`` two-level emitters 0.03 THz above the frame, with a Gaussian
    strain spread of 0.2 THz FWHM and T2 = median * exp(log_sigma Z)."""
    spec = EnsembleSpec((PopulationComponent(
        1.0, StrainDistribution("gaussian", 0.0, 0.2),
        T2Rule("lognormal", (median_t2,), log_sigma=log_sigma),
        t1_ns=t1 * 1e-3, two_level=True),))
    base = LevelScheme(FRAME + 0.03, 59.0, 261.0)
    return sample_ensemble(spec, base, StrainModel(), n, seed)


# log-normal T2 around 60 ps, heterodyne, no laser; on the diagonal each
# two-level emitter contributes 2 exp(-T/T1) exp(-2 tau/T2), real
LOGNORMAL_CASE = dict(median_t2=60.0, log_sigma=0.4, t1=1700.0)
DIAGONAL_WAIT = 40.0


def test_lognormal_t2_diagonal_matches_closed_form():
    n = 4000
    ensemble = _lognormal_two_level(n, 5, **LOGNORMAL_CASE)
    grid = _grid(128, 0.5)
    diagonal = synthesize_diagonal(ensemble, grid, DIAGONAL_WAIT, "heterodyne")
    for k in (1, 10, 40, 90, 127):
        mean, sd = lognormal_t2_diagonal_moments(tau_ps=grid.tau_ps[k],
                                                 wait_ps=DIAGONAL_WAIT,
                                                 **LOGNORMAL_CASE)
        got = diagonal[k] / n
        assert abs(got.real - mean) <= 5.0 * sd / np.sqrt(n)
        assert abs(got.imag) <= 1e-12 * mean


def test_lognormal_t2_diagonal_error_converges_as_inverse_sqrt_n():
    # RMS deviation in units of the per-emitter standard deviation, over the
    # diagonal past tau = 0 and 16 seeds per ensemble size
    grid = _grid(128, 0.5)
    mean, sd = np.transpose([lognormal_t2_diagonal_moments(
        tau_ps=tau, wait_ps=DIAGONAL_WAIT, **LOGNORMAL_CASE) for tau in grid.tau_ps[1:]])
    sizes = (250, 1000, 4000)
    errors = []
    for k, n in enumerate(sizes):
        sq = [np.mean(np.abs(synthesize_diagonal(
            _lognormal_two_level(n, 16 * k + s, **LOGNORMAL_CASE), grid,
            DIAGONAL_WAIT, "heterodyne")[1:] / n - mean) ** 2 / sd ** 2)
            for s in range(16)]
        errors.append(np.sqrt(np.mean(sq)))
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)
