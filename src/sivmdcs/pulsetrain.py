"""Frequency-tagged pulse-train intensity records and lock-in demodulation.

The four excitation pulses carry radio-frequency tag offsets, so every
fourth-order mixing product appears in the detected intensity as a beatnote
at a signed combination of the tags.  ``simulate_pulse_train`` builds the
real-valued detector record from a map of signature -> complex amplitude;
``demodulate`` recovers the complex amplitude at one reference beatnote with
a Hann-windowed software lock-in.

Every tone, the record's beats as well as the lock-in's reference phasor
and its Hann window, comes from ``blocks.phasors``, the recurrence that
synthesis uses: a fresh complex exp every 64th sample and one
multiplication by exp(2 pi i f / rate) per sample between.  Each entry is
within about 64 ulp of a direct exp of its phase; any float evaluation of
a phase of P rad carries about ulp(P) of rounding besides.  On an x86-64
guest with numpy 2.4 a complex exp costs 37-50 ns and a multiply 1-3 ns.
The window is 0.5 - 0.5 Re exp(2 pi i k / (n - 1)), with np.hanning's own
values for n <= 2.

Time is handled in microseconds so that MHz tags and MS/s sample rates are
dimensionally consistent.  A record holds at most ``MAX_SAMPLES`` samples;
a longer one is refused before any array is made.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .blocks import phasors
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
    series = np.full(n, dc_offset)
    for sig, amp in amplitudes.items():
        if amp != 0:
            tone = _tone(beats[sig], n, sample_rate_msps)
            tone *= amp
            series += tone.real
    return RawTrainRecord(sample_rate_msps, series, tags,
                          metadata={"dc_offset": dc_offset})


def _tone(frequency_mhz: float, n: int, sample_rate_msps: float) -> np.ndarray:
    """exp(2 pi i f k / rate), k = 0..n-1, from the phasor recurrence."""
    z = np.array([2j * np.pi * frequency_mhz])
    return phasors(z, n, 1.0 / sample_rate_msps)[:, 0]


def _hann(n: int) -> np.ndarray:
    """``np.hanning(n)``, 0.5 - 0.5 cos(2 pi k / (n - 1)), from the phasor
    recurrence; np.hanning's own n <= 2 cases, exactly."""
    if n <= 2:
        return np.hanning(n)
    return 0.5 - 0.5 * _tone(1.0, n, n - 1.0).real


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
    when the record is shorter than 10 / bandwidth, and InvalidSpec when the
    value is not finite: a non-finite sample, or a sum that overflows.
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
    n = len(record.series)
    window = _hann(n)
    x = record.series - record.series.mean()
    x *= window
    mixed = _tone(-reference_mhz, n, record.sample_rate_msps)
    mixed *= x
    value = complex(2.0 * mixed.sum() / window.sum())
    if not cmath.isfinite(value):
        raise InvalidSpec("the demodulated value is not finite: the record holds "
                          "a non-finite sample or overflows")
    return value
