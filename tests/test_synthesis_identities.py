"""Exact identities of the synthesized signal, as hypothesis properties on
both synthesis routes over random mixed ensembles and grids: additivity over
disjoint ensembles, invariance under a permutation of the emitters, and a
frame shift of one frequency bin, which rolls the 2D spectrum by one bin on
each axis.  Each bound is the route's bound against the exact sum in
``test_response.py``, in units of max|S| (max|F| for the spectrum)."""
from dataclasses import fields

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import ensembles
from wide import wide_signal
from sivmdcs.emitter import Ensemble, LaserSpectrum
from sivmdcs.response import Grid, TimeDomainSignal, _checked_terms, _echo_groups
from sivmdcs.spectra import to_spectrum

FRAME = 406.770
BOUND = {"echo": 1e-10, "dense": 1e-12}
PROPERTY = settings(max_examples=40, deadline=None, database=None)
# tau and t steps: equal ones take the echo route for the ensembles below,
# unequal ones always take the dense route
STEPS = {"echo": (0.25, 0.25), "dense": (0.25, 0.2)}
ROUTES = st.sampled_from(["echo", "dense"])
MODES = st.sampled_from(["pl", "heterodyne"])
LASERS = st.sampled_from([None, LaserSpectrum(FRAME, 0.5)])
SEEDS = st.integers(0, 2**32 - 1)
# n_t from 5 to 4096 points: one row block of 13,107 rows down to blocks of
# 16 rows, so up to 70 rows span up to five blocks with a short last one
SHAPES = st.tuples(st.integers(1, 70), st.sampled_from([5, 24, 300, 2100, 4096]))


def _ensemble(rng, route) -> Ensemble:
    """Broad two-level emitters mixed with four-line ones.  For the echo
    route, T2 takes two values and the four-line emitters share their lines,
    so at most six (delta, T2) groups average at least 64 terms; for the
    dense route, every emitter draws its own log-normal T2."""
    n_two = int(rng.integers(400, 600) if route == "echo" else rng.integers(1, 150))
    n_four = int(rng.integers(0, 30))
    if route == "echo":
        t2_two, t2_four = rng.choice([40.0, 300.0], n_two), 40.0
    else:
        t2_two, t2_four = (rng.lognormal(np.log(60.0), 0.4, n) for n in (n_two, n_four))
    return ensembles.concat(
        ensembles.two_level(FRAME + rng.uniform(-0.4, 0.4, n_two), t2_two,
                            rng.uniform(500.0, 2000.0, n_two),
                            rng.uniform(0.1, 1.0, n_two)),
        ensembles.four_line(ensembles.default_scheme(), n_four, t2_four,
                            1700.0, rng.uniform(0.1, 1.0, n_four)))


def _take(ensemble: Ensemble, index) -> Ensemble:
    return Ensemble(**{f.name: getattr(ensemble, f.name)[index]
                       for f in fields(Ensemble)})


def _signal(ensemble, grid, mode, laser, route) -> TimeDomainSignal:
    """The noise-free complex128 signal, after checking that it takes
    ``route``."""
    terms = _checked_terms(ensemble, grid, 0.5, mode, laser)
    echo = grid.tau_step_ps == grid.t_step_ps and _echo_groups(*terms()) is not None
    assert ("echo" if echo else "dense") == route
    return TimeDomainSignal(wide_signal(ensemble, grid, 0.5, mode, laser), grid, 0.5, mode)


def _grid(route, shape, frame=FRAME) -> Grid:
    return Grid(*shape, *STEPS[route], frame)


@seed(20222)
@PROPERTY
@given(route=ROUTES, seed=SEEDS, shape=SHAPES, mode=MODES, laser=LASERS)
@example(route="dense", seed=1, shape=(40, 4096), mode="pl", laser=None)
@example(route="echo", seed=2, shape=(70, 2100), mode="heterodyne", laser=None)
def test_the_signal_of_a_union_is_the_sum_of_the_signals(route, seed, shape, mode, laser):
    rng = np.random.default_rng(seed)
    a, b = _ensemble(rng, route), _ensemble(rng, route)
    grid = _grid(route, shape)
    union = _signal(ensembles.concat(a, b), grid, mode, laser, route).data
    parts = sum(_signal(part, grid, mode, laser, route).data for part in (a, b))
    assert np.abs(union - parts).max() <= BOUND[route] * np.abs(union).max()


@seed(20222)
@PROPERTY
@given(route=ROUTES, seed=SEEDS, shape=SHAPES, mode=MODES, laser=LASERS)
@example(route="dense", seed=3, shape=(70, 2100), mode="heterodyne", laser=None)
def test_the_signal_does_not_depend_on_the_emitter_order(route, seed, shape, mode, laser):
    rng = np.random.default_rng(seed)
    ensemble = _ensemble(rng, route)
    grid = _grid(route, shape)
    signal = _signal(ensemble, grid, mode, laser, route).data
    shuffled = _signal(_take(ensemble, rng.permutation(len(ensemble))), grid,
                       mode, laser, route).data
    assert np.abs(shuffled - signal).max() <= BOUND[route] * np.abs(signal).max()


@seed(20222)
@PROPERTY
@given(route=ROUTES, seed=SEEDS, power=st.integers(2, 6), mode=MODES, laser=LASERS)
@example(route="dense", seed=4, power=6, mode="pl", laser=None)
def test_a_one_bin_frame_shift_rolls_the_spectrum(route, seed, power, mode, laser):
    # both axes span 2**power ps, so one bin is 2**-power THz on each, and
    # the frame and every detuning move by it exactly; lowering the frame by
    # one bin moves every peak up one bin in nu_t and, on the negated nu_tau
    # axis, down one bin.  The dense grid (4 m x 5 m at 0.25 and 0.2 ps) spans
    # two row blocks at power 6
    tau_step, t_step = STEPS[route]
    shape = (round(2**power / tau_step), round(2**power / t_step))
    ensemble = _ensemble(np.random.default_rng(seed), route)
    spectra = [to_spectrum(_signal(ensemble, _grid(route, shape, frame), mode,
                                   laser, route)).data
               for frame in (FRAME, FRAME - 2.0**-power)]
    rolled = np.roll(spectra[0], (-1, 1), axis=(0, 1))
    assert np.abs(spectra[1] - rolled).max() <= BOUND[route] * np.abs(spectra[0]).max()
