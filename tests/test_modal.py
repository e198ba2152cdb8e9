import math
import tracemalloc

import numpy as np
import pytest

from twinmill import modal
from twinmill.errors import InvalidInputError
from twinmill.modal import (
    FrfSeries,
    ImpactRecord,
    ModalModel,
    effective_stiffness,
    fit_shift,
    frf_from_csv,
    frf_synthesize,
    frf_to_csv,
    h1_estimate,
    impact_record_from_csv,
    impact_record_to_csv,
    natural_frequency,
    peak_pick,
    shift_fit_to_csv,
    simulate_impact,
)

MEASURED_POINTS = [(0.0, 159.0), (500.0, 165.0), (1400.0, 190.0), (2000.0, 202.0)]

# Closed-form least-squares line through MEASURED_POINTS, computed by hand
# from the normal equations: slope = Sxy/Sxx = 54400/2407500.
LSQ_SLOPE = 54400.0 / 2407500.0          # 0.02259605400... Hz/N
LSQ_INTERCEPT = 179.0 - LSQ_SLOPE * 975.0  # 156.9688473... Hz


def make_model(axis="x", mass=60.0, zeta=0.015, f0=159.0, sens=0.0226):
    return ModalModel(axis=axis, mass=mass, damping_ratio=zeta, f0=f0, sensitivity=sens)


class TestModel:
    def test_natural_frequency_linear(self):
        m = make_model()
        assert natural_frequency(m, 0.0) == 159.0
        assert natural_frequency(m, 1000.0) == pytest.approx(159.0 + 22.6)

    def test_a_falling_natural_frequency_is_taken_while_positive(self):
        """Refused from 1000 N on (the refusal rows of a falling model)."""
        assert natural_frequency(ModalModel("x", 10.0, 0.05, 100.0, -0.1), 999.0) == pytest.approx(0.1)

    def test_effective_stiffness(self):
        m = make_model()
        k = effective_stiffness(m, 0.0)
        assert k == pytest.approx(60.0 * (2 * math.pi * 159.0) ** 2)


class TestSynthesize:
    def test_static_limit(self):
        m = make_model()
        frf = frf_synthesize(m, 0.0, np.array([0.01]))
        assert abs(frf.values[0]) == pytest.approx(1.0 / effective_stiffness(m, 0.0), rel=1e-4)

    def test_resonance_magnitude(self):
        # at the undamped natural frequency |H| = 1/(c*w) = 1/(2*zeta*k)
        m = make_model()
        k = effective_stiffness(m, 0.0)
        frf = frf_synthesize(m, 0.0, np.array([159.0]))
        assert abs(frf.values[0]) == pytest.approx(1.0 / (2 * m.damping_ratio * k), rel=1e-12)

    def test_peak_near_damped_frequency(self):
        m = make_model(zeta=0.05)
        grid = np.arange(100.0, 220.0, 0.01)
        frf = frf_synthesize(m, 0.0, grid)
        f_peak = grid[np.argmax(np.abs(frf.values))]
        assert f_peak == pytest.approx(159.0 * math.sqrt(1 - 2 * 0.05**2), abs=0.02)

    def test_tension_shifts_peak(self):
        m = make_model()
        grid = np.arange(100.0, 260.0, 0.01)
        f_lo = grid[np.argmax(np.abs(frf_synthesize(m, 0.0, grid).values))]
        f_hi = grid[np.argmax(np.abs(frf_synthesize(m, 2000.0, grid).values))]
        assert f_hi - f_lo == pytest.approx(0.0226 * 2000.0, abs=0.1)

    def test_an_undamped_model_is_finite_off_its_natural_frequency(self):
        """zeta = 0 is a valid model; on a grid through 159 Hz it is refused."""
        grid = np.arange(1.0, 400.0, 0.25) + 0.125
        assert np.all(np.isfinite(frf_synthesize(make_model(zeta=0.0), 0.0, grid).values))

    def test_frf_arrays_are_read_only_copies(self):
        f, v = np.array([1.0, 2.0]), np.array([1 + 1j, 2 - 1j])
        frf = FrfSeries(f, v)
        with pytest.raises(ValueError):
            frf.frequencies[1] = 0.5
        with pytest.raises(ValueError):
            frf.values[0] = 0.0
        f[1], v[0] = 0.5, 0.0  # the caller's arrays stay writeable and are not the FRF's
        np.testing.assert_array_equal(frf.frequencies, [1.0, 2.0])
        np.testing.assert_array_equal(frf.values, [1 + 1j, 2 - 1j])


class TestImpactRecord:

    def test_arrays_are_read_only_copies(self):
        force, acc = np.zeros(16), np.zeros(16)
        force[3] = 1.0
        record = ImpactRecord(1000.0, force, acc)
        with pytest.raises(ValueError):
            record.force[3] = 0.0
        with pytest.raises(ValueError):
            record.acceleration[0] = 1.0
        force[:] = 0.0  # the caller's arrays stay writeable and are not the record's
        acc[0] = 1.0
        assert record.force[3] == 1.0 and record.acceleration[0] == 0.0

    def test_csv_round_trip(self):
        rec = simulate_impact(make_model(), 500.0, sample_rate=1024.0, duration=0.25)
        back = impact_record_from_csv(impact_record_to_csv(rec))
        assert back.sample_rate == rec.sample_rate
        assert back.tension == rec.tension
        assert back.axis == rec.axis
        np.testing.assert_array_equal(back.force, rec.force)
        np.testing.assert_array_equal(back.acceleration, rec.acceleration)


class TestH1:
    def test_peak_matches_model_within_one_bin(self):
        # independent oracle: time-domain simulation of the oscillator ODE,
        # processed blind by the estimator
        m = make_model()
        for tension in (0.0, 1400.0):
            rec = simulate_impact(m, tension, sample_rate=2048.0, duration=4.0)
            frf = h1_estimate([rec])
            peaks = peak_pick(frf, 100.0, 300.0)
            assert len(peaks) == 1
            df = frf.frequencies[1] - frf.frequencies[0]
            assert abs(peaks[0][0] - natural_frequency(m, tension)) <= df

    def test_static_compliance_recovered(self):
        m = make_model(zeta=0.02)
        rec = simulate_impact(m, 0.0, sample_rate=2048.0, duration=8.0)
        frf = h1_estimate([rec])
        lo = np.argmin(np.abs(frf.frequencies - 5.0))
        assert abs(frf.values[lo]) == pytest.approx(1.0 / effective_stiffness(m, 0.0), rel=0.05)

    def test_averaging_identical_records_is_idempotent(self):
        m = make_model()
        rec = simulate_impact(m, 500.0, sample_rate=2048.0, duration=2.0)
        one = h1_estimate([rec])
        three = h1_estimate([rec, rec, rec])
        np.testing.assert_allclose(three.values, one.values, rtol=1e-12)

    def test_a_force_of_two_equal_samples_is_estimated_on_an_odd_length(self):
        """Its windowed spectrum is exactly 0 at half the sample rate, where
        an even FFT length is refused; an odd one has no bin there."""
        rec = ImpactRecord(1000.0, np.repeat([0.0, 100.0, 0.0], [3, 2, 59]), np.sin(np.arange(64.0)))
        assert h1_estimate([rec], nfft=63).frequencies.size == 31

    def test_nfft_of_2_and_numpy_integers_accepted(self):
        rec = simulate_impact(make_model(), 0.0, sample_rate=2048.0, duration=0.25)
        assert h1_estimate([rec], nfft=2).frequencies.shape == (1,)
        np.testing.assert_array_equal(h1_estimate([rec], nfft=np.int64(512)).values,
                                      h1_estimate([rec], nfft=512).values)

    def test_nfft_over_the_cap_refused_before_allocating(self):
        rec = simulate_impact(make_model(), 0.0, sample_rate=2048.0, duration=0.25)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=r"^nfft 1000000000 exceeds both 4194304 and the "
                                                        r"longest record \(512\)$"):
                h1_estimate([rec], nfft=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_nfft_cap_is_the_larger_of_max_nfft_and_the_longest_record(self, monkeypatch):
        short = simulate_impact(make_model(), 0.0, sample_rate=2048.0, duration=0.125)
        rec = simulate_impact(make_model(), 0.0, sample_rate=2048.0, duration=0.25)
        monkeypatch.setattr(modal, "MAX_NFFT", 1024)
        assert h1_estimate([rec], nfft=1024).frequencies.size == 512
        with pytest.raises(InvalidInputError, match="^nfft 1025 exceeds"):
            h1_estimate([rec], nfft=1025)
        monkeypatch.setattr(modal, "MAX_NFFT", 64)
        # The default, the longest record, is always allowed.
        assert h1_estimate([short, rec]).frequencies.size == 256
        assert h1_estimate([short, rec], nfft=512).frequencies.size == 256
        with pytest.raises(InvalidInputError, match=r"^nfft 513 exceeds both 64 and the longest record \(512\)$"):
            h1_estimate([short, rec], nfft=513)


class TestPeakPick:
    def test_single_synthetic_peak(self):
        m = make_model()
        grid = np.arange(50.0, 400.0, 0.25)
        peaks = peak_pick(frf_synthesize(m, 0.0, grid), 100.0, 300.0)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(159.0, abs=0.25)

    def test_two_superposed_oscillators(self):
        grid = np.arange(50.0, 400.0, 0.25)
        a = frf_synthesize(make_model(f0=159.0), 0.0, grid)
        b = frf_synthesize(make_model(f0=300.0), 0.0, grid)
        frf = FrfSeries(grid, a.values + b.values)
        freqs = [p[0] for p in peak_pick(frf, 100.0, 350.0)]
        assert len(freqs) == 2
        assert freqs[0] == pytest.approx(159.0, abs=0.5)
        assert freqs[1] == pytest.approx(300.0, abs=0.5)

    def test_band_without_peak(self):
        m = make_model()
        grid = np.arange(50.0, 400.0, 0.25)
        assert peak_pick(frf_synthesize(m, 0.0, grid), 250.0, 350.0) == []


class TestFitShift:
    def test_measured_points_frozen_values(self):
        fit = fit_shift(MEASURED_POINTS)
        assert fit.slope == pytest.approx(LSQ_SLOPE, rel=1e-12)
        assert fit.intercept == pytest.approx(LSQ_INTERCEPT, rel=1e-12)
        assert fit.slope == pytest.approx(0.0226, abs=5e-5)
        assert fit.intercept == pytest.approx(157.0, abs=0.1)
        assert fit.intercept + fit.slope * 2000.0 == pytest.approx(202.16, abs=0.01)
        assert np.max(np.abs(fit.residuals)) <= 3.5

    def test_two_points_exact(self):
        fit = fit_shift([(0.0, 100.0), (1000.0, 120.0)])
        assert fit.slope == pytest.approx(0.02, rel=1e-12)
        assert fit.intercept == pytest.approx(100.0, rel=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)

    def test_flat_line(self):
        fit = fit_shift([(0.0, 150.0), (500.0, 150.0), (1000.0, 150.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(150.0, rel=1e-12)


class TestSimulateImpact:

    def test_three_sample_record_accepted(self):
        rec = simulate_impact(make_model(), 0.0, sample_rate=1.0, duration=3.0, impact_width=2.0)
        np.testing.assert_array_equal(rec.force, [0.0, 100.0, 0.0])


class TestPipeline:
    def test_simulate_estimate_fit_closes(self):
        m = make_model(zeta=0.01, f0=140.0, sens=0.02)
        points = []
        for tension in (0.0, 1000.0, 2000.0):
            rec = simulate_impact(m, tension, sample_rate=2048.0, duration=4.0)
            frf = h1_estimate([rec])
            peaks = peak_pick(frf, 80.0, 400.0)
            assert len(peaks) == 1
            points.append((tension, peaks[0][0]))
        fit = fit_shift(points)
        assert fit.slope == pytest.approx(0.02, rel=0.1)
        assert fit.intercept == pytest.approx(140.0, abs=0.25)


class TestCsv:
    def test_frf_round_trip_bitwise(self):
        m = make_model()
        frf = frf_synthesize(m, 1400.0, np.arange(10.0, 500.0, 0.25))
        text = frf_to_csv(frf)
        back = frf_from_csv(text)
        np.testing.assert_array_equal(back.frequencies, frf.frequencies)
        np.testing.assert_array_equal(back.values, frf.values)
        assert back.tension == frf.tension and back.axis == frf.axis
        assert frf_to_csv(back) == text

    def test_frf_csv_format(self):
        frf = FrfSeries(np.array([1.0 / 3.0]), np.array([1.0 + 2.0j]), tension=500.0)
        text = frf_to_csv(frf)
        assert "freq_hz,re,im" in text
        assert "0.33333333333333331" in text  # 17 significant digits
        assert "\r" not in text

    def test_shift_fit_csv(self):
        fit = fit_shift(MEASURED_POINTS)
        text = shift_fit_to_csv(MEASURED_POINTS, fit)
        assert "tension_N,freq_hz,fit_hz,residual_hz" in text
        assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 5
