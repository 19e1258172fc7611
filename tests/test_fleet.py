"""Unit tests for repro.trace.fleet and repro.trace.gps."""

import numpy as np
import pytest

from repro.trace.fleet import DEFAULT_INTERVAL_MIXTURE, ReportingPolicy, sample_report_times
from repro.trace.gps import GPSErrorModel


class TestReportingPolicy:
    def test_default_mixture_sums_to_one(self):
        assert sum(p for _, p in DEFAULT_INTERVAL_MIXTURE) == pytest.approx(1.0)

    def test_mean_interval_near_paper(self):
        # the paper's 20.41 s mean is pair-weighted (∝ 1/interval); the
        # mixture's harmonic mean must land near it
        p = ReportingPolicy()
        inv = sum(prob / iv for iv, prob in p.interval_mixture)
        assert 1.0 / inv == pytest.approx(20.41, abs=4.0)
        assert 20.0 <= p.mean_interval_s <= 35.0

    def test_sample_interval_from_mixture(self, rng):
        p = ReportingPolicy()
        allowed = {iv for iv, _ in p.interval_mixture}
        for _ in range(50):
            assert p.sample_interval(rng) in allowed

    def test_rejects_bad_mixture(self):
        with pytest.raises(ValueError):
            ReportingPolicy(interval_mixture=((10.0, 0.5), (20.0, 0.4)))
        with pytest.raises(ValueError):
            ReportingPolicy(interval_mixture=((0.0, 1.0),))

    @pytest.mark.parametrize("iv", [float("nan"), float("inf"), -15.0])
    def test_rejects_non_finite_interval(self, iv):
        with pytest.raises(ValueError, match="interval"):
            ReportingPolicy(interval_mixture=((iv, 0.5), (30.0, 0.5)))

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            ReportingPolicy(packet_loss_prob=1.5)


class TestSampleReportTimes:
    def test_regular_grid_without_loss(self, rng):
        p = ReportingPolicy(packet_loss_prob=0.0, jitter_sd_s=0.0)
        times = sample_report_times(p, 30.0, 0.0, 600.0, rng)
        assert times.size in (20, 21)
        gaps = np.diff(times)
        np.testing.assert_allclose(gaps, 30.0)

    def test_loss_creates_multiples_of_interval(self, rng):
        p = ReportingPolicy(packet_loss_prob=0.4, jitter_sd_s=0.0)
        times = sample_report_times(p, 15.0, 0.0, 3000.0, rng)
        gaps = np.diff(times)
        ratio = gaps / 15.0
        np.testing.assert_allclose(ratio, np.round(ratio))
        assert (ratio > 1.5).any(), "packet loss should create long gaps"

    def test_bounds_respected(self, rng):
        p = ReportingPolicy()
        times = sample_report_times(p, 15.0, 100.0, 200.0, rng)
        if times.size:
            assert times.min() >= 100.0 and times.max() <= 200.0

    def test_empty_for_inverted_window(self, rng):
        p = ReportingPolicy()
        assert sample_report_times(p, 15.0, 100.0, 50.0, rng).size == 0

    def test_phase_varies_between_taxis(self, rng):
        p = ReportingPolicy(packet_loss_prob=0.0, jitter_sd_s=0.0)
        first = {float(sample_report_times(p, 30.0, 0.0, 100.0, rng)[0]) for _ in range(20)}
        assert len(first) > 5  # random phases


class TestGPSErrorModel:
    def test_noise_scale(self, rng):
        m = GPSErrorModel(sigma_m=5.0, outlier_prob=0.0, unavailable_prob=0.0)
        x = np.zeros(4000)
        xn, yn, ok = m.apply(x, x, rng)
        assert ok.all()
        assert xn.std() == pytest.approx(5.0, rel=0.1)

    def test_outliers_widen_tail(self, rng):
        clean = GPSErrorModel(sigma_m=5.0, outlier_prob=0.0, unavailable_prob=0.0)
        dirty = GPSErrorModel(sigma_m=5.0, outlier_prob=0.3, outlier_sigma_m=60.0,
                              unavailable_prob=0.0)
        x = np.zeros(4000)
        _, _, _ = clean.apply(x, x, rng)
        xd, _, _ = dirty.apply(x, x, rng)
        assert np.quantile(np.abs(xd), 0.99) > 40.0

    def test_unavailable_flagged(self, rng):
        m = GPSErrorModel(unavailable_prob=0.5)
        _, _, ok = m.apply(np.zeros(2000), np.zeros(2000), rng)
        assert 0.3 < ok.mean() < 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            GPSErrorModel(sigma_m=-1.0)
        with pytest.raises(ValueError):
            GPSErrorModel(outlier_prob=2.0)
