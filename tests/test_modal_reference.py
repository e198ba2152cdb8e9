"""Differential property tests of the numpy modal runtime against scipy:
the peak finder against scipy.signal.find_peaks and simulate_impact against
scipy.signal.lsim. Skipped where scipy is not installed (CI's tier-1 step
fails on that skip)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.modal import (
    AXES,
    ImpactRecord,
    ModalModel,
    _prominent_peaks,
    effective_stiffness,
    h1_estimate,
    simulate_impact,
)

signal = pytest.importorskip("scipy.signal")

LENGTHS = st.integers(0, 80)
RANDOM = arrays(np.float64, LENGTHS, elements=st.floats(-1e6, 1e6))
PLATEAUS = arrays(np.int64, LENGTHS, elements=st.integers(0, 4)).map(lambda a: a.astype(float))
WALKS = arrays(np.int64, LENGTHS, elements=st.integers(-2, 2)).map(lambda a: np.cumsum(a).astype(float))
# Whole-number thresholds meet integer-valued prominences exactly.
PROMINENCES = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0))


@settings(max_examples=300)
@given(x=st.one_of(RANDOM, PLATEAUS, WALKS), prominence=PROMINENCES)
@example(x=np.array([0.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0]), prominence=1.0)
@example(x=np.array([1.0, 1.0, 1.0]), prominence=0.0)
@example(x=np.array([0.0, 5.0, 1.0, 2.0, 1.0, 2.0, 0.0]), prominence=4.5)  # a 5-sample right stretch
def test_peak_finder_matches_find_peaks(x, prominence):
    expected = signal.find_peaks(x, prominence=prominence)[0]
    np.testing.assert_array_equal(_prominent_peaks(x, prominence), expected)


@pytest.mark.parametrize("noise_share", [1e-3, 1e-2])
@pytest.mark.parametrize("tension", [0.0, 2000.0])
@pytest.mark.parametrize("axis", AXES)
def test_peak_finder_matches_find_peaks_on_campaign_bands(cfg, axis, tension, noise_share):
    """|H1| of five noisy 4 s impacts at 4096 Hz over the band that holds the
    resonance from 0 to 2000 N, at the 3 x median threshold of peak_pick:
    1281-2361 samples, 1-5 candidates at 0.1 % response noise, 17-72 at 1 %."""
    model = cfg.modal_models[axis]
    clean = simulate_impact(model, tension, sample_rate=4096.0, duration=4.0, impact_width=0.5e-3)
    rng = np.random.default_rng(AXES.index(axis) * 100 + int(tension) + int(1e4 * noise_share))
    sigma = noise_share * np.max(np.abs(clean.acceleration))
    frf = h1_estimate([
        ImpactRecord(clean.sample_rate, clean.force,
                     clean.acceleration + rng.normal(0.0, sigma, clean.acceleration.shape),
                     axis=axis, tension=tension)
        for _ in range(5)
    ])
    lo, hi = 0.5 * model.f0, model.f0 + abs(model.sensitivity) * 2000.0 + 200.0
    mag = np.abs(frf.values[(frf.frequencies >= lo) & (frf.frequencies <= hi)])
    prominence = 3.0 * np.median(mag)
    expected = signal.find_peaks(mag, prominence=prominence)[0]
    assert expected.size >= 1
    np.testing.assert_array_equal(_prominent_peaks(mag, prominence), expected)


def lsim_acceleration(model, tension, record):
    """The acceleration scipy.signal.lsim gives for the record's sampled force."""
    k = effective_stiffness(model, tension)
    m = model.mass
    c = 2.0 * model.damping_ratio * math.sqrt(k * m)
    system = ([[0.0, 1.0], [-k / m, -c / m]], [[0.0], [1.0 / m]], [[-k / m, -c / m]], [[1.0 / m]])
    t = np.arange(record.force.size) / record.sample_rate
    return signal.lsim(system, record.force, t)[1]


def assert_matches_lsim(model, tension, record):
    expected = lsim_acceleration(model, tension, record)
    error = np.max(np.abs(record.acceleration - expected))
    assert error <= 1e-10 * np.max(np.abs(expected))


@settings(max_examples=40)
@given(
    zeta=st.floats(0.0, 0.2),
    f0=st.floats(20.0, 1500.0),
    tension=st.floats(0.0, 2000.0),
    sample_rate=st.sampled_from([1024.0, 2048.0, 4096.0, 8192.0]),
    pulse_samples=st.floats(1.1, 40.0),
)
@example(zeta=0.0, f0=159.0, tension=0.0, sample_rate=4096.0, pulse_samples=8.192)
@example(zeta=0.2, f0=1500.0, tension=2000.0, sample_rate=1024.0, pulse_samples=1.1)
def test_simulate_impact_matches_lsim(zeta, f0, tension, sample_rate, pulse_samples):
    model = ModalModel("x", 60.0, zeta, f0, 0.0226)
    record = simulate_impact(model, tension, sample_rate=sample_rate, duration=0.25,
                             impact_width=pulse_samples / sample_rate)
    assert_matches_lsim(model, tension, record)


@pytest.mark.parametrize("f0", [0.05, 0.2, 0.4])
def test_simulate_impact_matches_lsim_on_a_three_sample_record(f0):
    # Force [0, 100, 0]: the hold steps reach the last sample, no free tail is left.
    model = ModalModel("x", 60.0, 0.05, f0, 0.0)
    record = simulate_impact(model, 0.0, sample_rate=1.0, duration=3.0, impact_width=2.0)
    assert_matches_lsim(model, 0.0, record)
