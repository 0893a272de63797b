import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ensembles import default_scheme
from sivmdcs.emitter import (GAUSSIAN_FWHM_PER_SIGMA, Ensemble, EnsembleSpec,
                             LaserSpectrum, LevelScheme, PopulationComponent,
                             StrainDistribution, StrainModel, T2Rule,
                             quantum_yield, sample_ensemble)
from sivmdcs.errors import InvalidSpec, SplittingCollapse

EXPECTED_LINES = [406.654, 406.713, 406.915, 406.974]


def test_default_scheme_line_positions():
    lines = default_scheme().transition_frequencies()
    assert np.allclose(lines, EXPECTED_LINES, atol=1e-9)
    assert np.all(np.diff(lines) > 0)


def test_transition_levels_pairing():
    levels = default_scheme().transition_levels()
    assert levels == ((1, 0), (0, 0), (1, 1), (0, 1))
    # outer lines share nothing; line pairs (0,2) and (1,3) share a ground
    assert levels[0][0] == levels[2][0]
    assert levels[1][0] == levels[3][0]
    assert levels[0][0] != levels[3][0]


def _ensemble(**changes):
    """Two emitters, one four-line and one two-level, valid unless changed."""
    lines = default_scheme().transition_frequencies()
    fields = dict(strain=np.zeros(2),
                  lines_thz=np.array([lines, np.full(4, lines[0])]),
                  dipole=np.ones(2), t1_ps=np.full(2, 1700.0),
                  t2_ps=np.array([122.0, 3400.0]),
                  quantum_yield=np.array([1.0, 0.3]),
                  two_level=np.array([False, True]))
    fields.update(changes)
    return Ensemble(**fields)


@pytest.mark.parametrize("ground,excited", [(0.0, 261.0), (59.0, 0.0),
                                            (-5.0, 261.0), (261.0, 59.0),
                                            (59.0, 59.0)])
def test_scheme_rejects_collapsed_splittings(ground, excited):
    with pytest.raises(SplittingCollapse):
        LevelScheme(406.8140, ground, excited)
    # the same lines in an ensemble
    dg, de = ground * 1e-3, excited * 1e-3
    lines = 406.8140 + np.array([-(de + dg), -(de - dg), de - dg, de + dg]) / 2.0
    with pytest.raises(SplittingCollapse):
        _ensemble(lines_thz=np.array([lines, np.full(4, 406.8140)]))


def test_scheme_rejects_nonpositive_center():
    with pytest.raises(InvalidSpec):
        LevelScheme(0.0, 59.0, 261.0)


def _delta_strain_spec(strain, two_level=False):
    return EnsembleSpec((PopulationComponent(
        strain=StrainDistribution("delta", center=strain), two_level=two_level),))


def test_strained_scheme_is_linear_in_strain():
    model = StrainModel(shift_thz_per_unit=2.0,
                        ground_splitting_ghz_per_unit=3.0,
                        excited_splitting_ghz_per_unit=-4.0)
    ens = sample_ensemble(_delta_strain_spec(0.5), default_scheme(), model, 2, seed=1)
    want = LevelScheme(406.8140 + 1.0, 60.5, 259.0).transition_frequencies()
    assert np.allclose(ens.lines_thz, want, rtol=0.0, atol=1e-12)
    # a two-level emitter feels only the shift of its center
    ens = sample_ensemble(_delta_strain_spec(0.5, two_level=True),
                          default_scheme(), model, 2, seed=1)
    assert np.allclose(ens.lines_thz, 406.8140 + 1.0, rtol=0.0, atol=1e-12)


def test_strained_scheme_collapse_raises():
    model = StrainModel(ground_splitting_ghz_per_unit=-59.0)
    with pytest.raises(SplittingCollapse):
        sample_ensemble(_delta_strain_spec(1.0), default_scheme(), model, 3, seed=1)
    # the two-level population has no splitting to collapse
    sample_ensemble(_delta_strain_spec(1.0, two_level=True), default_scheme(),
                    model, 3, seed=1)


def test_quantum_yield_crossover_and_monotonicity():
    model = StrainModel(yield_crossover=0.02, yield_steepness=4.0,
                        bright_yield=0.8)
    assert quantum_yield(model, 0.0) == pytest.approx(0.8)
    assert quantum_yield(model, 0.02) == pytest.approx(0.4)
    assert quantum_yield(model, -0.02) == pytest.approx(0.4)
    strains = np.linspace(0.0, 0.5, 40)
    samples = quantum_yield(model, strains)
    assert np.all(np.diff(samples) <= 0)
    assert np.allclose(samples, [quantum_yield(model, s) for s in strains],
                       rtol=1e-15, atol=0.0)


def test_laser_spectrum_gaussian_shape():
    laser = LaserSpectrum(406.770, 4.14)
    assert laser.amplitude(406.770) == pytest.approx(1.0)
    assert laser.amplitude(406.770 + 2.07) == pytest.approx(0.5)
    assert laser.amplitude(406.770 - 2.07) == pytest.approx(0.5)


def test_laser_spectrum_validation():
    with pytest.raises(InvalidSpec):
        LaserSpectrum(fwhm_thz=0.0)
    with pytest.raises(InvalidSpec):
        LaserSpectrum(fwhm_thz=-1.0)


def test_strain_distribution_sampling():
    rng = np.random.default_rng(0)
    delta = StrainDistribution("delta", center=0.3)
    assert np.all(delta.sample(rng, 5) == 0.3)
    gauss = StrainDistribution("gaussian", fwhm=1.84)
    draws = gauss.sample(np.random.default_rng(1), 200_000)
    assert np.std(draws) == pytest.approx(1.84 / GAUSSIAN_FWHM_PER_SIGMA, rel=0.02)
    with pytest.raises(InvalidSpec):
        StrainDistribution("triangular", fwhm=1.0)
    with pytest.raises(InvalidSpec):
        StrainDistribution("gaussian", fwhm=0.0)


def test_t2_rule_classes():
    rule = T2Rule("classes", (120.0, 990.0), (0.7, 0.3))
    draws = rule.sample(np.random.default_rng(2), 5000)
    assert set(np.unique(draws)) == {120.0, 990.0}
    frac = np.mean(draws == 120.0)
    assert frac == pytest.approx(0.7, abs=0.03)


def test_t2_rule_validation():
    with pytest.raises(InvalidSpec):
        T2Rule("classes", (120.0, 990.0), (0.7, 0.7))
    with pytest.raises(InvalidSpec):
        T2Rule("classes", (120.0,), (0.5, 0.5))
    with pytest.raises(InvalidSpec):
        T2Rule("constant", (0.0,))
    with pytest.raises(InvalidSpec):
        T2Rule("lognormal", (100.0,), (1.0,), log_sigma=0.0)
    with pytest.raises(InvalidSpec):
        T2Rule("weird")


def test_t2_rule_lognormal_median():
    rule = T2Rule("lognormal", (300.0,), (1.0,), log_sigma=0.4)
    draws = rule.sample(np.random.default_rng(3), 100_000)
    assert np.median(draws) == pytest.approx(300.0, rel=0.02)


def test_emitter_invariants():
    ens = _ensemble()
    assert len(ens) == 2
    bad = {
        "quantum_yield": np.array([1.0, 0.0]),
        "dipole": np.array([1.0, -1.0]),
        "t2_ps": np.array([122.0, 3401.0]),
        "t1_ps": np.array([1700.0, np.nan]),
        "lines_thz": np.array([ens.lines_thz[0], np.zeros(4)]),
        "strain": np.zeros(3),
        "two_level": np.array([True]),
    }
    for name, value in bad.items():
        with pytest.raises(InvalidSpec):
            _ensemble(**{name: value})
    assert _ensemble(quantum_yield=np.array([1.0, 1.0])).quantum_yield[1] == 1.0


def test_ensemble_spec_weights_must_sum_to_one():
    with pytest.raises(InvalidSpec):
        EnsembleSpec((PopulationComponent(weight=0.4),
                      PopulationComponent(weight=0.4)))
    with pytest.raises(InvalidSpec):
        EnsembleSpec(())


def _simple_spec(**kwargs):
    defaults = dict(weight=1.0,
                    strain=StrainDistribution("gaussian", fwhm=0.028),
                    t2=T2Rule("constant", (122.0,)))
    defaults.update(kwargs)
    return EnsembleSpec((PopulationComponent(**defaults),))


def test_sample_ensemble_deterministic_in_seed():
    spec = _simple_spec()
    model = StrainModel()
    a = sample_ensemble(spec, default_scheme(), model, 50, seed=7)
    b = sample_ensemble(spec, default_scheme(), model, 50, seed=7)
    c = sample_ensemble(spec, default_scheme(), model, 50, seed=8)
    assert np.array_equal(a.strain, b.strain)
    assert np.array_equal(a.lines_thz, b.lines_thz)
    assert not np.array_equal(a.strain, c.strain)


def test_sample_ensemble_clamps_t2_to_coherent_limit():
    spec = _simple_spec(t2=T2Rule("constant", (5000.0,)), t1_ns=1.7)
    ens = sample_ensemble(spec, default_scheme(), StrainModel(), 10, seed=1)
    assert np.allclose(ens.t2_ps, 3400.0)


def test_sample_ensemble_fixed_yield_and_two_level():
    spec = _simple_spec(yield_rule=0.25, two_level=True)
    ens = sample_ensemble(spec, default_scheme(), StrainModel(), 10, seed=1)
    assert np.all(ens.quantum_yield == 0.25)
    assert np.all(ens.two_level)
    # a two-level emitter keeps only the strained center frequency
    assert np.allclose(ens.lines_thz[:, 0], 406.8140 + ens.strain)


def test_sample_ensemble_strain_yield():
    model = StrainModel(yield_crossover=0.02, yield_steepness=4.0)
    spec = _simple_spec(strain=StrainDistribution("delta", center=0.02))
    ens = sample_ensemble(spec, default_scheme(), model, 3, seed=1)
    assert np.allclose(ens.quantum_yield, 0.5)


def test_sample_ensemble_rejects_empty():
    with pytest.raises(InvalidSpec):
        sample_ensemble(_simple_spec(), default_scheme(), StrainModel(), 0, seed=1)


def test_sample_ensemble_component_mixture():
    spec = EnsembleSpec((
        PopulationComponent(weight=0.5,
                            strain=StrainDistribution("delta", center=0.0),
                            t2=T2Rule("constant", (122.0,))),
        PopulationComponent(weight=0.5,
                            strain=StrainDistribution("delta", center=1.0),
                            t2=T2Rule("constant", (990.0,))),
    ))
    ens = sample_ensemble(spec, default_scheme(), StrainModel(), 400, seed=4)
    assert 100 < np.sum(ens.strain == 0.0) < 300
    assert np.all((ens.strain == 0.0) | (ens.strain == 1.0))
    assert np.array_equal(ens.t2_ps, np.where(ens.strain == 0.0, 122.0, 990.0))


# --- the cached pathway-term layout -----------------------------------------

def test_term_layout_is_built_once_per_ensemble():
    ens = _ensemble()
    assert ens.terms is ens.terms
    # eight terms for the four-line emitter, one for the two-level one
    assert ens.terms.starts.tolist() == [0, 8]
    assert ens.terms.emitter.tolist() == [0] * 8 + [1]
    assert np.array_equal(ens.terms.t2_ps, [122.0] * 8 + [3400.0])


def test_replaced_ensemble_gets_its_own_layout():
    ens = _ensemble()
    layout = ens.terms
    other = replace(ens, t2_ps=np.array([61.0, 1700.0]))
    assert other.terms is not layout
    assert np.array_equal(other.terms.t2_ps, [61.0] * 8 + [1700.0])
    assert np.array_equal(ens.terms.t2_ps, [122.0] * 8 + [3400.0])


def test_ensemble_and_layout_arrays_are_read_only():
    ens = _ensemble()
    for f in fields(Ensemble):
        with pytest.raises(ValueError):
            getattr(ens, f.name)[0] = 0
    for rows in ens.terms:
        with pytest.raises(ValueError):
            rows[0] = 0
