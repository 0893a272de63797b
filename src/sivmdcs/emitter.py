"""SiV- level structure, strain response, and inhomogeneous ensemble sampling.

Internal unit conventions: optical frequencies in THz, fine-structure
splittings in GHz, times in ps unless a field name says otherwise.  A strain
value is a dimensionless scalar; the strain model maps it linearly onto a
frequency shift and splitting perturbations, and algebraically onto a
quantum yield.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec, SplittingCollapse
from .pathways import MERGED_EMISSION, MERGED_EXCITATION, MERGED_MULTIPLICITY, TWO_LEVEL_TERMS

GAUSSIAN_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class LevelScheme:
    """Doublet ground + doublet excited manifold giving four optical lines.

    ``center_thz`` is the mean transition frequency; the four lines sit at
    center +- (excited +- ground)/2.
    """

    center_thz: float
    ground_splitting_ghz: float
    excited_splitting_ghz: float

    def __post_init__(self):
        if self.center_thz <= 0:
            raise InvalidSpec(f"center frequency must be positive, got {self.center_thz}")
        if self.ground_splitting_ghz <= 0 or self.excited_splitting_ghz <= 0:
            raise SplittingCollapse(
                f"splittings must be positive, got "
                f"({self.ground_splitting_ghz}, {self.excited_splitting_ghz}) GHz"
            )
        if self.excited_splitting_ghz <= self.ground_splitting_ghz:
            raise SplittingCollapse(
                "excited splitting must exceed ground splitting for a strictly "
                f"increasing line quadruple, got ({self.ground_splitting_ghz}, "
                f"{self.excited_splitting_ghz}) GHz"
            )

    def transition_frequencies(self) -> np.ndarray:
        """Four line positions in THz, strictly ascending."""
        return _line_quadruple(self.center_thz, self.ground_splitting_ghz,
                               self.excited_splitting_ghz)

    def transition_levels(self) -> tuple[tuple[int, int], ...]:
        """(ground sublevel, excited sublevel) for each line, same order as
        ``transition_frequencies``.  Index 0 is the lower sublevel."""
        return ((1, 0), (0, 0), (1, 1), (0, 1))


def _line_quadruple(center_thz, ground_splitting_ghz, excited_splitting_ghz) -> np.ndarray:
    """Line positions center +- (excited +- ground)/2 in THz, ascending along a
    new last axis; the arguments may be scalars or equal-shape arrays."""
    dg = np.multiply(ground_splitting_ghz, 1e-3)
    de = np.multiply(excited_splitting_ghz, 1e-3)
    c = center_thz
    return np.stack([
        c - (de + dg) / 2.0,
        c - (de - dg) / 2.0,
        c + (de - dg) / 2.0,
        c + (de + dg) / 2.0,
    ], axis=-1)


@dataclass(frozen=True)
class StrainModel:
    """Linear strain response of the level scheme plus an algebraic
    dark-state yield suppression Y(s) = Y0 / (1 + (|s|/s_c)^p)."""

    shift_thz_per_unit: float = 1.0
    ground_splitting_ghz_per_unit: float = 0.0
    excited_splitting_ghz_per_unit: float = 0.0
    yield_crossover: float = 1.0
    yield_steepness: float = 2.0
    bright_yield: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.bright_yield <= 1.0):
            raise InvalidSpec(f"bright yield must be in (0, 1], got {self.bright_yield}")
        if self.yield_crossover <= 0 or self.yield_steepness <= 0:
            raise InvalidSpec("yield crossover and steepness must be positive")


def quantum_yield(model: StrainModel, s):
    """Strain-dependent radiative quantum yield, in (0, Y0], of one strain
    value or elementwise of an array of them."""
    return model.bright_yield / (1.0 + (np.abs(s) / model.yield_crossover) ** model.yield_steepness)


@dataclass(frozen=True)
class LaserSpectrum:
    """Gaussian excitation spectrum, normalized to unit peak.

    The values are spectrometer-style (intensity) spectral weights; the
    field amplitude seen by one light-matter interaction is their square
    root.
    """

    center_thz: float = 406.770
    fwhm_thz: float = 4.14

    def __post_init__(self):
        if self.fwhm_thz <= 0:
            raise InvalidSpec(f"laser FWHM must be positive, got {self.fwhm_thz}")

    def amplitude(self, freq_thz) -> np.ndarray:
        """Unit-peak spectral weight at the given absolute frequencies."""
        nu = np.asarray(freq_thz, dtype=float)
        sigma = self.fwhm_thz / GAUSSIAN_FWHM_PER_SIGMA
        with np.errstate(over="ignore"):    # a far frequency has weight 0
            return np.exp(-0.5 * ((nu - self.center_thz) / sigma) ** 2)


# --- ensemble specification ------------------------------------------------

STRAIN_SHAPES = ("gaussian", "lorentzian", "delta")


@dataclass(frozen=True)
class StrainDistribution:
    shape: str = "gaussian"
    center: float = 0.0
    fwhm: float = 0.0

    def __post_init__(self):
        if self.shape not in STRAIN_SHAPES:
            raise InvalidSpec(f"unknown strain distribution shape {self.shape!r}")
        if self.shape != "delta" and self.fwhm <= 0:
            raise InvalidSpec(f"strain FWHM must be positive, got {self.fwhm}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.shape == "delta":
            return np.full(n, self.center)
        if self.shape == "gaussian":
            return rng.normal(self.center, self.fwhm / GAUSSIAN_FWHM_PER_SIGMA, size=n)
        # Lorentzian: FWHM = 2 * scale
        return self.center + (self.fwhm / 2.0) * rng.standard_cauchy(size=n)


@dataclass(frozen=True)
class T2Rule:
    """Dephasing-time assignment: a constant, discrete sub-classes with
    weights, or a log-normal spread (median in ps, log-sigma)."""

    kind: str = "constant"
    values_ps: tuple[float, ...] = (122.0,)
    weights: tuple[float, ...] = (1.0,)
    log_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "classes", "lognormal"):
            raise InvalidSpec(f"unknown T2 rule kind {self.kind!r}")
        if any(v <= 0 for v in self.values_ps):
            raise InvalidSpec("T2 values must be positive")
        if self.kind == "classes":
            if len(self.values_ps) != len(self.weights):
                raise InvalidSpec("T2 class values and weights must pair up")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise InvalidSpec("T2 class weights must sum to 1")
        if self.kind == "lognormal" and self.log_sigma <= 0:
            raise InvalidSpec("lognormal T2 rule needs a positive log-sigma")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.values_ps[0])
        if self.kind == "classes":
            idx = rng.choice(len(self.values_ps), size=n, p=self.weights)
            return np.asarray(self.values_ps)[idx]
        return self.values_ps[0] * np.exp(rng.normal(0.0, self.log_sigma, size=n))


@dataclass(frozen=True)
class PopulationComponent:
    weight: float = 1.0
    strain: StrainDistribution = field(default_factory=StrainDistribution)
    t2: T2Rule = field(default_factory=T2Rule)
    t1_ns: float = 1.7
    dipole: float = 1.0
    yield_rule: str | float = "strain"
    two_level: bool = False

    def __post_init__(self):
        if self.weight < 0:
            raise InvalidSpec("component weight must be non-negative")
        if self.t1_ns <= 0 or self.dipole <= 0:
            raise InvalidSpec("T1 and dipole must be positive")
        if isinstance(self.yield_rule, str):
            if self.yield_rule != "strain":
                raise InvalidSpec(f"yield rule must be 'strain' or a number, got {self.yield_rule!r}")
        elif not (0.0 < float(self.yield_rule) <= 1.0):
            raise InvalidSpec("fixed quantum yield must be in (0, 1]")


@dataclass(frozen=True)
class EnsembleSpec:
    components: tuple[PopulationComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise InvalidSpec("ensemble needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpec(f"component weights must sum to 1, got {total}")


class TermLayout(NamedTuple):
    """Where an ensemble's pathway terms come from, one entry per term,
    emitter by emitter in the order of the merged pathway table."""

    emitter: np.ndarray          # emitter index
    multiplicity: np.ndarray     # 2 for a direct peak's GSB + SE, else 1
    starts: np.ndarray           # first term of each emitter
    nu_exc_thz: np.ndarray       # absolute excitation line frequency
    nu_emit_thz: np.ndarray      # absolute emission line frequency
    t2_ps: np.ndarray


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Sampled color centers as parallel numpy arrays, one entry per emitter.

    ``lines_thz`` has shape (n, 4): a four-line emitter's strained line
    quadruple in ascending order.  A two-level emitter has one line, its
    strained center, in column 0; it fills the other columns too, which
    no pathway term reads.
    """

    strain: np.ndarray
    lines_thz: np.ndarray
    dipole: np.ndarray
    t1_ps: np.ndarray
    t2_ps: np.ndarray
    quantum_yield: np.ndarray
    two_level: np.ndarray        # bool

    def __post_init__(self):
        n = len(self.strain)
        per_emitter = (self.dipole, self.t1_ps, self.t2_ps, self.quantum_yield,
                       self.two_level)
        if np.shape(self.lines_thz) != (n, 4) or any(np.shape(a) != (n,) for a in per_emitter):
            raise InvalidSpec(f"ensemble of {n} emitters needs (n, 4) lines and "
                              "one value per emitter in every other field")
        # the comparisons are written so that NaN fails them
        if not np.all(self.lines_thz[:, 0] > 0):
            raise InvalidSpec("line frequencies must be positive")
        if not np.all(np.diff(self.lines_thz[~self.two_level], axis=1) > 0):
            raise SplittingCollapse(
                "every four-line emitter needs a strictly increasing line "
                "quadruple, i.e. 0 < ground splitting < excited splitting")
        if not np.all(self.dipole > 0):
            raise InvalidSpec("dipole must be positive")
        if not np.all((self.quantum_yield > 0) & (self.quantum_yield <= 1.0)):
            raise InvalidSpec("quantum yield must be in (0, 1]")
        if not np.all(self.t2_ps <= 2.0 * self.t1_ps + 1e-9):
            raise InvalidSpec("T2 exceeds the coherent limit 2*T1")
        for f in fields(self):      # so that the cached term layout cannot go stale
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.strain)

    @cached_property
    def terms(self) -> TermLayout:
        """The pathway-term layout, built on first use."""
        counts = np.where(self.two_level, TWO_LEVEL_TERMS, len(MERGED_MULTIPLICITY))
        starts = np.cumsum(counts) - counts
        # one 1.5 MB block at 62k terms lifts glibc's mmap threshold over the
        # 1 MiB phasor tables, which then come back from the heap (1.8k minor
        # faults per sweep item, against up to 6.9k with three separate rows)
        mult, nu_exc, nu_emit = np.empty((3, counts.sum()))
        # a four-line emitter has every merged row, a two-level one the first
        for kind, rows in ((~self.two_level, slice(None)),
                           (self.two_level, slice(TWO_LEVEL_TERMS))):
            own = np.flatnonzero(kind)
            at = starts.take(own)[:, None] + np.arange(len(MERGED_MULTIPLICITY))[rows]
            lines = self.lines_thz.take(own, axis=0)
            mult[at] = MERGED_MULTIPLICITY[rows]
            nu_exc[at] = lines[:, MERGED_EXCITATION[rows]]
            nu_emit[at] = lines[:, MERGED_EMISSION[rows]]
        layout = TermLayout(np.repeat(np.arange(len(self)), counts), mult, starts,
                            nu_exc, nu_emit, np.repeat(self.t2_ps, counts))
        for values in layout:
            values.setflags(write=False)
        return layout


def sample_ensemble(spec: EnsembleSpec, base: LevelScheme, model: StrainModel,
                    n: int, seed: int) -> Ensemble:
    """Draw ``n`` emitters from the population mixture, deterministically in
    ``seed``.  The result satisfies every Ensemble invariant."""
    if n < 1:
        raise InvalidSpec(f"ensemble size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    weights = np.array([c.weight for c in spec.components])
    comp_idx = rng.choice(len(spec.components), size=n, p=weights)

    # Pre-draw per-component streams so the cost stays vectorized.
    strains = np.empty(n)
    t2s = np.empty(n)
    for ci, comp in enumerate(spec.components):
        mask = comp_idx == ci
        m = int(mask.sum())
        if m == 0:
            continue
        strains[mask] = comp.strain.sample(rng, m)
        t2s[mask] = comp.t2.sample(rng, m)

    def per_emitter(values):
        return np.asarray(values)[comp_idx]

    components = spec.components
    two_level = per_emitter([c.two_level for c in components])
    center = base.center_thz + model.shift_thz_per_unit * strains
    # a two-level emitter feels only the strain shift of its center
    quadruple = _line_quadruple(
        center,
        base.ground_splitting_ghz + model.ground_splitting_ghz_per_unit * strains,
        base.excited_splitting_ghz + model.excited_splitting_ghz_per_unit * strains)
    lines = np.where(two_level[:, None], center[:, None], quadruple)
    by_strain = per_emitter([c.yield_rule == "strain" for c in components])
    fixed_yield = per_emitter([1.0 if c.yield_rule == "strain" else float(c.yield_rule)
                               for c in components])
    t1 = per_emitter([c.t1_ns for c in components]) * 1e3
    return Ensemble(strain=strains, lines_thz=lines,
                    dipole=per_emitter([float(c.dipole) for c in components]),
                    t1_ps=t1, t2_ps=np.minimum(t2s, 2.0 * t1),
                    quantum_yield=np.where(by_strain, quantum_yield(model, strains),
                                           fixed_yield),
                    two_level=two_level)
