"""Frequency-tagged pulse-train intensity records and lock-in demodulation.

The four excitation pulses carry radio-frequency tag offsets, so every
fourth-order mixing product appears in the detected intensity as a beatnote
at a signed combination of the tags.  ``simulate_pulse_train`` builds the
real-valued detector record from a map of signature -> complex amplitude;
``demodulate`` recovers the complex amplitude at one reference beatnote with
a Hann-windowed software lock-in.

Time is handled in microseconds so that MHz tags and MS/s sample rates are
dimensionally consistent.  A record holds at most ``MAX_SAMPLES`` samples;
a longer one is refused before any array is made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import AliasError, InsufficientRecord, InvalidSpec
from .pathways import TagSet, signature_frequency

MAX_SAMPLES = 1 << 24          # 128 MiB per float64 array


@dataclass
class RawTrainRecord:
    sample_rate_msps: float          # megasamples per second == samples/us
    series: np.ndarray               # real detector intensity
    tags: TagSet
    metadata: dict = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return len(self.series) / self.sample_rate_msps

    @property
    def times_us(self) -> np.ndarray:
        return np.arange(len(self.series)) / self.sample_rate_msps


def simulate_pulse_train(amplitudes: Mapping[tuple[int, int, int, int], complex],
                         tags: TagSet, duration_us: float,
                         sample_rate_msps: float,
                         dc_offset: float = 1.0) -> RawTrainRecord:
    """Detector intensity record containing one beat per signature.

    Each entry contributes Re[A exp(2 pi i nu_sig t)]; a DC pedestal stands
    in for the average photocurrent of the 76 MHz train (the train comb
    itself is far above the record's Nyquist frequency and is not
    modelled).
    """
    if not (math.isfinite(duration_us) and duration_us > 0):
        raise InvalidSpec(f"record duration must be positive, got {duration_us} us")
    if not (math.isfinite(sample_rate_msps) and sample_rate_msps > 0):
        raise InvalidSpec(f"sample rate must be positive, got {sample_rate_msps} MS/s")
    if not np.all(np.isfinite([dc_offset, *amplitudes.values()])):
        raise InvalidSpec("beat amplitudes and the DC offset must be finite")
    beats = {sig: signature_frequency(sig, tags) for sig in amplitudes}
    max_beat = max((abs(f) for f in beats.values()), default=0.0)
    if sample_rate_msps <= 4.0 * max_beat:
        raise AliasError(
            f"sample rate {sample_rate_msps} MS/s must exceed 4x the largest "
            f"beat frequency {max_beat} MHz")
    n = round(duration_us * sample_rate_msps)
    if n > MAX_SAMPLES:
        raise InvalidSpec(f"{n} samples exceed the ceiling of {MAX_SAMPLES} samples")
    t = np.arange(n) / sample_rate_msps
    series = np.full(n, dc_offset)
    for sig, amp in amplitudes.items():
        if amp != 0:
            series = series + np.real(amp * np.exp(2j * np.pi * beats[sig] * t))
    return RawTrainRecord(sample_rate_msps, series, tags,
                          metadata={"dc_offset": dc_offset})


def bandwidth_mhz(bandwidth_khz: float) -> float:
    """``bandwidth_khz`` in MHz; raises InvalidSpec unless that is positive."""
    if not bandwidth_khz * 1e-3 > 0:
        raise InvalidSpec(f"bandwidth must be positive, got {bandwidth_khz} kHz")
    return bandwidth_khz * 1e-3


def demodulate(record: RawTrainRecord, reference_mhz: float,
               bandwidth_khz: float = 1.0) -> complex:
    """Complex amplitude of the record's component at the reference beat.

    Uses a Hann-windowed synchronous average over the full record, whose
    equivalent bandwidth is at most the requested one (leakage from a tone
    ``df`` away falls off as (df * duration)^-3).  Raises InsufficientRecord
    when the record is shorter than 10 / bandwidth.
    """
    bw_mhz = bandwidth_mhz(bandwidth_khz)
    if not math.isfinite(reference_mhz):
        raise InvalidSpec(f"reference frequency must be finite, got {reference_mhz} MHz")
    if record.duration_us < 10.0 / bw_mhz:
        raise InsufficientRecord(
            f"record of {record.duration_us:.3g} us is shorter than "
            f"10/bandwidth = {10.0 / bw_mhz:.3g} us")
    if abs(reference_mhz) >= record.sample_rate_msps / 2.0:
        raise AliasError("reference frequency is beyond the record's Nyquist limit")
    t = record.times_us
    window = np.hanning(len(t))
    x = record.series - record.series.mean()
    mixed = x * np.exp(-2j * np.pi * reference_mhz * t) * window
    return complex(2.0 * mixed.sum() / window.sum())
