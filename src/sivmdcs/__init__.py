"""Collinear multidimensional coherent spectroscopy simulator for diamond
color-center ensembles: forward signal synthesis, 2D spectra, and lineshape
analysis for bright and strain-hidden SiV- populations."""

__version__ = "0.1.0"

from .emitter import (Ensemble, EnsembleSpec, LaserSpectrum, LevelScheme,
                      PopulationComponent, StrainDistribution, StrainModel,
                      T2Rule, quantum_yield, sample_ensemble)
from .pathways import (REPHASING_PATHWAYS, TagSet, rephasing_frequency,
                       signature_frequency)
from .response import Grid, TimeDomainSignal, synthesize_signal, waiting_time_scan
from .pulsetrain import RawTrainRecord, demodulate, simulate_pulse_train
from .spectra import (DecayTrace, Spectrum2D, Trace1D, deconvolve_laser,
                      diagonal_lineout, interpolated_fwhm, project_nu_t,
                      to_spectrum)
from .fitting import (FitResult, fit_exponential, fit_finite_bandwidth, fwhm,
                      lorentzian_width_from_t2)
from .config import ExperimentConfig, config_hash, parse_config, serialize_config
from .dataset import DatasetFile, read_dataset, write_dataset
