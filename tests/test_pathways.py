from collections import Counter

import numpy as np
import pytest

from ensembles import concat, default_scheme, four_line, two_level
from oracles import enumerate_pathways_oracle
from sivmdcs.emitter import LaserSpectrum
from sivmdcs.pathways import (REPHASING_PATHWAYS, TWO_LEVEL_PATHWAYS, TagSet,
                              rephasing_frequency, signature_frequency)
from sivmdcs.response import _pathway_terms

FRAME = 406.770


def test_rephasing_beatnote_default_tags():
    assert rephasing_frequency(TagSet()) == pytest.approx(0.021, abs=1e-9)


def test_signature_frequency_other_combinations():
    tags = TagSet()
    assert signature_frequency((1, -1, -1, 1), tags) == pytest.approx(-0.021)
    assert signature_frequency((1, 1, 1, 1), tags) == pytest.approx(320.621)
    with pytest.raises(ValueError):
        signature_frequency((1, -1, 1), tags)


def test_pathway_count_matches_connectivity_oracle():
    four = Counter(REPHASING_PATHWAYS)
    assert four == Counter(enumerate_pathways_oracle(default_scheme().transition_levels()))
    two = Counter(REPHASING_PATHWAYS[:TWO_LEVEL_PATHWAYS])
    assert two == Counter(enumerate_pathways_oracle(((0, 0),)))


def test_pathway_counts():
    assert len(REPHASING_PATHWAYS) == 12
    assert TWO_LEVEL_PATHWAYS == 2
    # the row order fixes the term order, and with it the summation order
    assert REPHASING_PATHWAYS[:8] == tuple((kind, i, i) for i in range(4)
                                           for kind in ("gsb", "se"))
    assert [exc for _, exc, _ in REPHASING_PATHWAYS[8:]] == [0, 1, 2, 3]
    # GSB and SE of a direct peak share one term: 8 terms per four-line
    # emitter (4 direct, then 4 cross), 1 per two-level one
    ens = concat(two_level(FRAME), four_line(default_scheme()), two_level(FRAME))
    nu_exc, nu_emit, _, _ = _pathway_terms(ens, "heterodyne", None, FRAME, 0.5)()
    assert len(nu_exc) == 1 + 8 + 1
    direct = nu_emit == nu_exc
    assert direct.tolist() == [True] * 5 + [False] * 4 + [True]


def test_all_pathways_positive_rephasing():
    # every pathway adds with a positive real weight, whatever the mode
    ens = concat(four_line(default_scheme(), quantum_yield=0.4),
                 two_level(FRAME + 0.3, quantum_yield=0.2))
    for mode in ("heterodyne", "pl"):
        _, _, weight, _ = _pathway_terms(ens, mode, LaserSpectrum(FRAME, 0.5),
                                         FRAME, 40.0)()
        assert np.all(weight.imag == 0.0)
        assert np.all(weight.real > 0.0)


def test_cross_pathways_only_on_shared_ground():
    levels = default_scheme().transition_levels()
    for kind, exc, emit in REPHASING_PATHWAYS:
        if exc != emit:
            assert kind == "gsb"
            assert levels[exc][0] == levels[emit][0]
        if kind == "se":
            assert exc == emit


def test_cross_pathway_pairs_are_exactly_the_ground_sharing_ones():
    cross = {(exc, emit) for _, exc, emit in REPHASING_PATHWAYS if exc != emit}
    assert cross == {(0, 2), (2, 0), (1, 3), (3, 1)}
