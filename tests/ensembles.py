"""Hand-built ensembles for tests: emitters placed on chosen lines, with
unit dipole and zero strain, instead of sampled from a population."""
from dataclasses import fields

import numpy as np

from sivmdcs.config import parse_config
from sivmdcs.emitter import Ensemble, LevelScheme


def default_scheme() -> LevelScheme:
    """The level scheme of a config that leaves ``[scheme]`` at its defaults."""
    return parse_config("[component.only]\nweight = 1.0\n").scheme


def _build(lines, two_level, t2_ps, t1_ps, quantum_yield):
    n = len(lines)

    def per_emitter(value):
        return np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()

    return Ensemble(strain=np.zeros(n), lines_thz=lines, dipole=np.ones(n),
                    t1_ps=per_emitter(t1_ps), t2_ps=per_emitter(t2_ps),
                    quantum_yield=per_emitter(quantum_yield),
                    two_level=np.full(n, two_level))


def two_level(centers_thz, t2_ps=122.0, t1_ps=1700.0, quantum_yield=1.0):
    """Two-level emitters, one per line center (THz)."""
    centers = np.atleast_1d(np.asarray(centers_thz, dtype=float))
    return _build(np.repeat(centers[:, None], 4, axis=1), True,
                  t2_ps, t1_ps, quantum_yield)


def four_line(scheme, n=1, t2_ps=122.0, t1_ps=1700.0, quantum_yield=1.0):
    """``n`` four-line emitters on the lines of ``scheme``."""
    return _build(np.tile(scheme.transition_frequencies(), (n, 1)), False,
                  t2_ps, t1_ps, quantum_yield)


def concat(*parts):
    """The emitters of every part, in order, as one ensemble."""
    return Ensemble(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                       for f in fields(Ensemble)})
