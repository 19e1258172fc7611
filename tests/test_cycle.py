"""Unit tests for cycle-length identification (§V)."""

import numpy as np
import pytest

from repro.core.cycle import (
    CycleConfig,
    FoldScanner,
    _select_cycle,
    fold_zscore,
    spectrum,
    stop_end_comb_zscore,
)
from repro.core.interpolation import regularize
from repro.core.signal_types import InsufficientDataError


def cycle_from_samples(
    t, v, t0, t1, config=None, *, enhanced=False, stop_ends=None, telemetry=None
):
    """§V on raw arrays: regularize over ``[t0, t1)``, DFT, select.

    The steps ``repro.core.batch.identify_cycles`` runs per light, with
    the one-light ``spectrum`` in place of the whole-city DFT (row for
    row the same bits), for tests that drive the stage with arrays.
    """
    config = CycleConfig() if config is None else config
    _grid, sig = regularize(
        t, v, t0, t1, dt=config.dt, kind=config.kind, min_samples=config.min_samples
    )
    periods, mag = spectrum(sig, config.dt)
    in_band = (periods >= config.min_cycle_s) & (periods <= config.max_cycle_s)
    if not in_band.any():
        raise InsufficientDataError(f"window [{t0}, {t1}) has no DFT bin in band")
    return _select_cycle(
        t, v, periods, mag, in_band, config,
        enhanced=enhanced, stop_ends=stop_ends, telemetry=telemetry,
    )


def square_wave(n, period, duty=0.4, lo=0.0, hi=10.0, phase=0.0):
    t = np.arange(n, dtype=float)
    return np.where(((t + phase) % period) < duty * period, lo, hi)


def sparse_samples(rng, t0, t1, period, duty=0.4, interval=18.0, noise=1.0):
    """Irregular noisy samples of a square-wave speed."""
    t = np.sort(rng.uniform(t0, t1, int((t1 - t0) / interval)))
    v = np.where((t % period) < duty * period, 1.0, 9.0)
    return t, v + rng.normal(0, noise, t.size)


class TestSpectrum:
    def test_pure_sine_peak(self):
        t = np.arange(3600.0)
        sig = np.sin(2 * np.pi * t / 100.0)
        periods, mag = spectrum(sig)
        assert periods[np.argmax(mag)] == pytest.approx(100.0, rel=0.01)

    def test_dc_removed(self):
        sig = np.full(100, 7.0)
        _, mag = spectrum(sig)
        assert mag.max() == pytest.approx(0.0, abs=1e-9)

    def test_eq2_period_formula(self):
        # paper's example: 3600 s window, strongest bin 37 -> 97.3 s
        sig = square_wave(3600, 3600 / 37)
        periods, mag = spectrum(sig)
        best = np.argmax(mag)
        assert best + 1 == 37
        assert periods[best] == pytest.approx(3600 / 37)


#: The paper's literal §V: the in-band DFT argmax, nothing rescored.
LITERAL = dict(n_candidates=1, refine=False, stop_end_weight=0.0)


def literal_cycle(values, **band):
    """Paper-literal cycle of a regular 1 Hz signal."""
    t = np.arange(values.shape[0], dtype=float)
    return cycle_from_samples(
        t, values, 0.0, float(values.shape[0]), CycleConfig(**LITERAL, **band)
    )


class TestIdentifyCycle:
    def test_square_wave(self):
        est = literal_cycle(square_wave(1800, 98.0))
        assert est.cycle_s == pytest.approx(98.0, abs=3.0)
        assert est.quality > 2.0

    def test_band_limits_respected(self):
        est = literal_cycle(square_wave(1800, 98.0),
                            min_cycle_s=150.0, max_cycle_s=300.0)
        assert est.cycle_s >= 150.0  # the true period is outside the band

    def test_empty_band_raises(self):
        with pytest.raises(InsufficientDataError):
            literal_cycle(square_wave(100, 20.0),
                          min_cycle_s=200.0, max_cycle_s=300.0)


class TestFoldZscore:
    def test_true_period_scores_high(self, rng):
        t, v = sparse_samples(rng, 0, 1800, 98.0)
        assert fold_zscore(t, v, 98.0) > 3.0

    def test_wrong_period_scores_low(self, rng):
        t, v = sparse_samples(rng, 0, 1800, 98.0)
        assert fold_zscore(t, v, 71.0) < fold_zscore(t, v, 98.0)

    def test_constant_signal(self, rng):
        t = np.sort(rng.uniform(0, 1000, 50))
        assert fold_zscore(t, np.full(50, 5.0), 98.0) == -np.inf

    def test_too_few_samples(self):
        assert fold_zscore(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 50.0) == -np.inf


class TestStopEndComb:
    def test_clustered_ends_score_high(self, rng):
        # ends at green onset: phase 40 of a 98 s cycle, +-2 s
        k = rng.integers(0, 40, 60)
        ends = k * 98.0 + 40.0 + rng.normal(0, 2.0, 60)
        assert stop_end_comb_zscore(ends, 98.0) > stop_end_comb_zscore(ends, 83.0)

    def test_few_events(self):
        assert stop_end_comb_zscore(np.array([1.0, 2.0]), 98.0) == -np.inf


class TestIdentifyFromSamples:
    def test_recovers_cycle_from_sparse_noisy_samples(self, rng):
        t, v = sparse_samples(rng, 0, 1800, 98.0, interval=10.0)
        est = cycle_from_samples(t, v, 0.0, 1800.0)
        assert est.cycle_s == pytest.approx(98.0, abs=1.0)
        assert est.n_samples == t.size

    def test_paper_literal_mode(self, rng):
        t, v = sparse_samples(rng, 0, 1800, 98.0, interval=8.0, noise=0.5)
        cfg = CycleConfig(n_candidates=1, refine=False, stop_end_weight=0.0)
        est = cycle_from_samples(t, v, 0.0, 1800.0, cfg)
        # plain argmax with leakage: within one DFT bin of truth
        assert est.cycle_s == pytest.approx(98.0, abs=6.0)

    def test_stop_ends_break_harmonic_ties(self, rng):
        t, v = sparse_samples(rng, 0, 1800, 98.0, interval=18.0, noise=1.5)
        k = rng.integers(0, 18, 60)
        ends = k * 98.0 + 39.0 + rng.normal(0, 2.0, 60)
        with_ends = cycle_from_samples(t, v, 0.0, 1800.0, stop_ends=ends)
        assert with_ends.cycle_s == pytest.approx(98.0, abs=1.5)

    def test_subharmonic_preference(self, rng):
        # even if the DFT's strongest bin is the 2x harmonic, the final
        # answer must land on the fundamental
        t, v = sparse_samples(rng, 0, 3600, 120.0, interval=12.0, noise=0.5)
        est = cycle_from_samples(t, v, 0.0, 3600.0)
        assert est.cycle_s == pytest.approx(120.0, abs=2.0)

    def test_sparse_window_raises(self):
        with pytest.raises(InsufficientDataError):
            cycle_from_samples(
                np.array([10.0, 700.0]), np.array([0.0, 5.0]), 0.0, 1800.0
            )


class TestRefine:
    """The fine folding scan that sharpens a DFT-bin period."""

    def test_refines_to_true_period(self, rng):
        t, v = sparse_samples(rng, 0, 1800, 98.0, interval=10.0, noise=0.5)
        refined, _z = FoldScanner(t, v, 10.0, np.inf).scan(100.0, 3.0, 0.05, 4.0)
        assert refined == pytest.approx(98.0, abs=0.5)

    def test_too_few_samples_passthrough(self):
        t = np.array([1.0, 2.0, 3.0])
        c, z = FoldScanner(t, t, 10.0, np.inf).scan(77.0, 3.0, 0.05, 4.0)
        assert (c, z) == (77.0, -np.inf)


class TestConfigValidation:
    def test_bad_band(self):
        with pytest.raises(ValueError):
            CycleConfig(min_cycle_s=100.0, max_cycle_s=50.0)

    def test_bad_candidates(self):
        with pytest.raises(ValueError):
            CycleConfig(n_candidates=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fold_bin_s", 0.0),
            ("fold_bin_s", -4.0),
            ("fold_bin_s", np.nan),
            ("fold_bin_s", np.inf),
            ("refine_bin_s", 0.0),
            ("refine_bin_s", np.nan),
            ("refine_bin_s", np.inf),
            ("stop_end_weight", -1.0),
            ("stop_end_weight", np.nan),
            ("stop_end_weight", np.inf),
            ("min_samples", 0),
            ("min_samples", -3),
        ],
    )
    def test_settings_that_can_only_fail_are_rejected(self, field, value):
        # None of these gives a usable scan: zero or NaN bins and an
        # empty sample floor fail every light's cycle stage, and a NaN
        # comb weight switches the comb off without a word.
        with pytest.raises(ValueError, match=field):
            CycleConfig(**{field: value})
