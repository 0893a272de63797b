import numpy as np
import pytest

from sivmdcs.errors import AliasError, InsufficientRecord, InvalidSpec
from sivmdcs.pathways import TagSet, rephasing_frequency, signature_frequency
from sivmdcs.pulsetrain import demodulate, simulate_pulse_train

TAGS = TagSet()
SIG = (-1, 1, 1, -1)


def test_record_layout_and_duration():
    record = simulate_pulse_train({SIG: 0.5}, TAGS, duration_us=1000.0,
                                  sample_rate_msps=5.0)
    assert len(record.series) == 5000
    assert record.duration_us == pytest.approx(1000.0)
    assert record.series.dtype == np.float64
    assert record.metadata["dc_offset"] == 1.0


def test_demodulation_recovers_complex_amplitude():
    amp = 0.37 * np.exp(1j * 0.8)
    record = simulate_pulse_train({SIG: amp}, TAGS, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    out = demodulate(record, rephasing_frequency(TAGS), bandwidth_khz=1.0)
    assert abs(out - amp) <= 0.01 * abs(amp)


def test_demodulation_rejects_other_signatures():
    other = (1, 1, -1, -1)   # beats at -0.407 MHz
    record = simulate_pulse_train({other: 1.0}, TAGS, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    leak = demodulate(record, rephasing_frequency(TAGS), bandwidth_khz=1.0)
    assert abs(leak) <= 1e-3   # >= 60 dB rejection


def test_demodulation_separates_concurrent_beats():
    amp = 0.2 + 0.1j
    amplitudes = {SIG: amp, (1, 1, -1, -1): 5.0, (-1, -1, 1, 1): 3.0 - 2.0j}
    record = simulate_pulse_train(amplitudes, TAGS, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    out = demodulate(record, rephasing_frequency(TAGS), bandwidth_khz=1.0)
    assert abs(out - amp) <= 0.01 * abs(amp)


def test_sample_rate_alias_guard():
    with pytest.raises(AliasError):
        simulate_pulse_train({(1, 1, 1, 1): 1.0}, TAGS, duration_us=100.0,
                             sample_rate_msps=100.0)


def test_reference_beyond_nyquist():
    record = simulate_pulse_train({SIG: 1.0}, TAGS, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    with pytest.raises(AliasError):
        demodulate(record, 3.0)


def test_short_record_rejected():
    record = simulate_pulse_train({SIG: 1.0}, TAGS, duration_us=100.0,
                                  sample_rate_msps=5.0)
    with pytest.raises(InsufficientRecord):
        demodulate(record, rephasing_frequency(TAGS), bandwidth_khz=1.0)
    with pytest.raises(InvalidSpec):
        demodulate(record, rephasing_frequency(TAGS), bandwidth_khz=0.0)


def test_beat_frequencies_match_signature_sums():
    # the record built from a single signature contains exactly that beat
    sig = (-1, 1, 1, -1)
    record = simulate_pulse_train({sig: 1.0}, TAGS, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    f = signature_frequency(sig, TAGS)
    spectrum = np.fft.rfft(record.series - record.series.mean())
    freqs = np.fft.rfftfreq(len(record.series), 1.0 / record.sample_rate_msps)
    peak = freqs[np.argmax(np.abs(spectrum))]
    assert peak == pytest.approx(abs(f), abs=freqs[1])
