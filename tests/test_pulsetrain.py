import numpy as np
import pytest

from sivmdcs.errors import AliasError, InsufficientRecord, InvalidSpec
from sivmdcs.pathways import TagSet, rephasing_frequency, signature_frequency
from sivmdcs.pulsetrain import _hann, _tone, demodulate, simulate_pulse_train

TAGS = TagSet()
SIG = (-1, 1, 1, -1)


def test_record_layout_and_duration():
    record = simulate_pulse_train({SIG: 0.5}, TAGS, duration_us=1000.0,
                                  sample_rate_msps=5.0)
    assert len(record.series) == 5000
    assert record.duration_us == pytest.approx(1000.0)
    assert record.series.dtype == np.float64
    pedestal = simulate_pulse_train({SIG: 0.0}, TAGS, 1000.0, 5.0).series
    assert np.array_equal(pedestal, np.ones(5000))


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


# --- the lock-in's tones and window from the phasor recurrence ------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 63, 64, 65, 129, 100_000, 100_001])
def test_window_matches_np_hanning(n):
    window = _hann(n)
    if n <= 2:      # np.hanning's own cases, bit for bit
        assert np.array_equal(window, np.hanning(n))
    assert np.max(np.abs(window - np.hanning(n)), initial=0.0) <= 1e-12


# a tone whose phase reaches P rad carries about ulp(P) of rounding in any
# float evaluation, so these stop near 2.6e3 rad, where ulp(P) is 4.5e-13;
# the first is the lock-in's own reference on the default demod record
@pytest.mark.parametrize("frequency_mhz,n,rate", [
    (rephasing_frequency(TAGS), 100_000, 5.0),
    (-rephasing_frequency(TAGS), 100_000, 5.0),
    (signature_frequency((1, 1, -1, -1), TAGS), 5_000, 5.0),
    (1.2, 1_000, 3.0),
    (0.3, 64, 7.0),
    (0.3, 1, 7.0),
])
def test_tone_matches_np_exp(frequency_mhz, n, rate):
    direct = np.exp(2j * np.pi * frequency_mhz * (np.arange(n) / rate))
    assert np.max(np.abs(_tone(frequency_mhz, n, rate) - direct)) <= 1e-12


def _direct_demodulate(series, rate, reference_mhz):
    """The lock-in with a fresh exp at every sample and np.hanning."""
    t = np.arange(len(series)) / rate
    window = np.hanning(len(t))
    mixed = (series - series.mean()) * np.exp(-2j * np.pi * reference_mhz * t) * window
    return complex(2.0 * mixed.sum() / window.sum())


@pytest.mark.parametrize("duration_us,rate", [(20000.0, 5.0), (12345.6, 3.3)])
def test_demodulated_value_matches_a_direct_exp_reference(duration_us, rate):
    amplitudes = {SIG: 0.42 * np.exp(0.6j), (1, 1, -1, -1): 4.0,
                  (-1, -1, 1, 1): 2.5 - 1.0j}
    record = simulate_pulse_train(amplitudes, TAGS, duration_us, rate)
    reference = rephasing_frequency(TAGS)
    got = demodulate(record, reference, bandwidth_khz=1.0)
    direct = _direct_demodulate(record.series, rate, reference)
    assert abs(got - direct) <= 1e-12 * abs(direct)


def test_simulated_beats_match_a_direct_exp_sum():
    # phases up to 2.6e3 rad, as above: 1e-12 per unit of amplitude
    amplitudes = {SIG: 0.42 * np.exp(0.6j), (1, 1, -1, -1): 4.0}
    record = simulate_pulse_train(amplitudes, TAGS, 1000.0, 5.0)
    t = np.arange(len(record.series)) / 5.0
    direct = 1.0 + sum(np.real(amp * np.exp(2j * np.pi * signature_frequency(sig, TAGS) * t))
                       for sig, amp in amplitudes.items())
    scale = sum(abs(amp) for amp in amplitudes.values())
    assert np.max(np.abs(record.series - direct)) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_demodulate_refuses_a_value_that_is_not_finite(bad):
    record = simulate_pulse_train({SIG: 1.0}, TAGS, duration_us=20000.0,
                                  sample_rate_msps=5.0)
    if bad == 1e308:    # finite samples whose mean overflows
        record.series[:] = bad
    else:
        record.series[7] = bad
    with pytest.raises(InvalidSpec, match="not finite"):
        demodulate(record, rephasing_frequency(TAGS), bandwidth_khz=1.0)
