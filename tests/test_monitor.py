"""Unit tests for scheduling-change monitoring (§VII)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor import (
    HistoricalProfile,
    MonitorSeries,
    PlanChange,
    detect_plan_changes,
    monitor_cycle,
    repair_outliers,
)


def series(cycles, t0=0.0, every=300.0, quality=None):
    cycles = np.asarray(cycles, dtype=float)
    t = t0 + np.arange(cycles.size) * every
    q = np.ones_like(cycles) if quality is None else np.asarray(quality, float)
    return MonitorSeries(t=t, cycle_s=cycles, quality=q)


def _repair_loop(cycle_s, half_width, tol_s):
    """The per-sample loop ``repair_outliers`` replaced: its oracle."""
    c = np.asarray(cycle_s, dtype=float)
    n = c.shape[0]
    repaired = c.copy()
    for i in range(n):
        lo, hi = max(0, i - half_width), min(n, i + half_width + 1)
        neigh = c[lo:hi]
        neigh = neigh[~np.isnan(neigh)]
        if neigh.size < 2 or np.isnan(c[i]):
            continue
        med = float(np.median(neigh))
        if abs(c[i] - med) > tol_s:
            repaired[i] = med
    return repaired


#: Cycle series with gaps, ties (integer levels) and free values.
_CYCLES = st.lists(
    st.floats(20.0, 200.0)
    | st.integers(40, 60).map(float)
    | st.just(float("nan")),
    max_size=40,
)


class TestRepairOutliers:
    @settings(max_examples=300, deadline=None)
    @given(cycles=_CYCLES, half_width=st.integers(0, 3), tol_s=st.floats(0.0, 8.0))
    def test_matches_per_sample_loop(self, cycles, half_width, tol_s):
        s = series(cycles)
        got = repair_outliers(s, half_width=half_width, tol_s=tol_s).cycle_s
        assert got.tobytes() == _repair_loop(s.cycle_s, half_width, tol_s).tobytes()

    def test_isolated_spike_repaired(self):
        s = series([98, 98, 240, 98, 98, 98])
        r = repair_outliers(s)
        assert r.cycle_s[2] == pytest.approx(98.0)

    def test_sustained_shift_survives(self):
        s = series([98] * 6 + [140] * 6)
        r = repair_outliers(s)
        assert r.cycle_s[-1] == pytest.approx(140.0)
        assert r.cycle_s[0] == pytest.approx(98.0)

    def test_nans_passed_through(self):
        s = series([98, np.nan, 98, 98])
        r = repair_outliers(s)
        assert np.isnan(r.cycle_s[1])

    def test_valid_fraction(self):
        s = series([98, np.nan, 98, np.nan])
        assert s.valid_fraction() == pytest.approx(0.5)


class TestDetectPlanChanges:
    def test_single_change_detected(self):
        s = series([98] * 10 + [140] * 10, every=300.0)
        changes = detect_plan_changes(s)
        assert len(changes) == 1
        ch = changes[0]
        assert ch.at_time == pytest.approx(10 * 300.0)
        assert ch.old_cycle_s == pytest.approx(98.0, abs=2.0)
        assert ch.new_cycle_s == pytest.approx(140.0, abs=2.0)

    def test_no_change_on_stable_series(self):
        s = series([98] * 30)
        assert detect_plan_changes(s) == []

    def test_isolated_blip_not_a_change(self):
        s = series([98] * 10 + [140] + [98] * 10)
        assert detect_plan_changes(s) == []

    def test_two_blips_below_min_consecutive_ignored(self):
        s = series([98] * 10 + [140, 140] + [98] * 10)
        assert detect_plan_changes(s, min_consecutive=3) == []

    def test_round_trip_peak_plan(self):
        # off-peak -> peak -> off-peak (the Fig. 12 daily pattern)
        s = series([98] * 12 + [140] * 8 + [98] * 12)
        changes = detect_plan_changes(s)
        assert len(changes) == 2
        assert changes[0].new_cycle_s == pytest.approx(140.0, abs=2.0)
        assert changes[1].new_cycle_s == pytest.approx(98.0, abs=2.0)

    def test_nan_gaps_tolerated(self):
        cycles = [98] * 8 + [np.nan] * 3 + [140] * 6
        changes = detect_plan_changes(series(cycles))
        assert len(changes) == 1

    def test_empty_series(self):
        assert detect_plan_changes(series([np.nan, np.nan])) == []


class TestMonitorCycle:
    def test_monitor_on_real_partition(self, partitions, city):
        key = next(iter(sorted(partitions)))
        p = partitions[key]
        out = monitor_cycle({key: p}, 0.0, 5400.0, every_s=600.0, window_s=1800.0)[key]
        assert len(out) == len(np.arange(1800.0, 5400.0 + 1e-9, 600.0))
        assert out.valid_fraction() > 0.5
        valid = out.cycle_s[~np.isnan(out.cycle_s)]
        # the test city runs 98 s cycles; most estimates must agree
        assert np.median(valid) == pytest.approx(98.0, abs=3.0)

    def test_validation(self, partitions):
        p = next(iter(partitions.values()))
        with pytest.raises(ValueError):
            monitor_cycle({p.key: p}, 0.0, 100.0, every_s=0.0)

    @pytest.mark.parametrize("city_name", ["test_city", "golden_monitor"])
    def test_multi_light_equals_one_light_calls(self, city_name, partitions):
        # The golden-monitor city has a light that goes dark, so NaN
        # windows are compared too.
        if city_name == "golden_monitor":
            from tests.golden.scenarios import (
                MONITOR_GOLDEN_SCENARIOS,
                build_monitor_partitions,
            )

            spec = MONITOR_GOLDEN_SCENARIOS[0]
            partitions = build_monitor_partitions(spec)
            t1 = spec.horizon_s
        else:
            t1 = 5400.0
        together = monitor_cycle(partitions, 0.0, t1, every_s=600.0)
        assert sorted(together) == sorted(partitions)
        for key, p in partitions.items():
            alone = monitor_cycle({key: p}, 0.0, t1, every_s=600.0)[key]
            for name in ("t", "cycle_s", "quality"):
                assert getattr(alone, name).tobytes() == getattr(
                    together[key], name
                ).tobytes(), (key, name)
            assert alone.n_errors == together[key].n_errors
        if city_name == "golden_monitor":
            assert any(np.isnan(s.cycle_s).any() for s in together.values())


class TestHistoricalProfile:
    def test_median_across_days(self):
        day = 86_400.0
        d1 = series([98] * 10, t0=8 * 3600.0, every=1800.0)
        d2 = series([100] * 10, t0=day + 8 * 3600.0, every=1800.0)
        d3 = series([98] * 10, t0=2 * day + 8 * 3600.0, every=1800.0)
        h = HistoricalProfile([d1, d2, d3])
        assert h.expectation_at(8.5 * 3600.0) == pytest.approx(98.0)

    def test_correct_snaps_outlier(self):
        d = series([98] * 20, t0=6 * 3600.0, every=1800.0)
        h = HistoricalProfile([d])
        assert h.correct(7 * 3600.0, 98.5) == pytest.approx(98.5)  # within tol
        assert h.correct(7 * 3600.0, 180.0) == pytest.approx(98.0)  # snapped

    def test_unknown_slot_passthrough(self):
        d = series([98] * 4, t0=6 * 3600.0, every=1800.0)
        h = HistoricalProfile([d])
        assert h.correct(20 * 3600.0, 123.0) == 123.0

    def test_bin_validation(self):
        with pytest.raises(ValueError):
            HistoricalProfile([], bin_s=7.0)


class TestDriftingSchedules:
    """Gradual (non-step) schedule transitions through the monitor stack.

    The detector was designed for step changes; these tests pin how it
    behaves when the truth drifts smoothly instead — staged detections
    for fast ramps, silence for slow creep — so a future tuning change
    shows up as an explicit diff here rather than a silent behavior
    shift.
    """

    def test_fast_ramp_reported_as_staged_changes(self):
        """A 42 s ramp over 30 windows surfaces as a few step changes,
        each moving in the drift direction and inside the ramp's span."""
        ramp = np.concatenate(
            [np.full(8, 98.0), np.linspace(98.0, 140.0, 30), np.full(8, 140.0)]
        )
        s = series(ramp)
        changes = detect_plan_changes(repair_outliers(s))
        assert 1 <= len(changes) <= 5
        times = [c.at_time for c in changes]
        assert times == sorted(times)
        assert all(c.new_cycle_s > c.old_cycle_s for c in changes)
        for c in changes:
            assert 98.0 < c.new_cycle_s <= 140.0 + 2.0
        # First staged detection happens after the drift actually starts.
        assert changes[0].at_time >= 8 * 300.0

    def test_repair_does_not_flatten_a_ramp(self):
        """A smooth drift is signal, not outliers: repair must pass it
        through untouched (every step is well inside the spike gate)."""
        ramp = np.linspace(98.0, 140.0, 30)
        r = repair_outliers(series(ramp))
        np.testing.assert_allclose(r.cycle_s, ramp)

    def test_slow_creep_stays_silent(self):
        """Sub-tolerance per-step creep is tracked by the EWMA level and
        never crosses the run-of-3 gate: zero reported changes.  This is
        the documented blind spot of a step detector, pinned on purpose."""
        creep = np.linspace(98.0, 160.0, 120)
        assert detect_plan_changes(series(creep)) == []

    def test_drift_with_nan_gaps_is_crash_free(self):
        """NaN holes in a drifting series must not break detection."""
        d = np.linspace(98.0, 140.0, 40)
        d[::7] = np.nan
        changes = detect_plan_changes(series(d))
        assert all(c.new_cycle_s > c.old_cycle_s for c in changes)

    def test_drift_into_nan_tail(self):
        """Estimates going dark mid-drift (all-NaN tail) is containment,
        not a crash; detections stay within the observed span."""
        d = np.concatenate([np.linspace(98.0, 130.0, 20), np.full(10, np.nan)])
        changes = detect_plan_changes(series(d))
        for c in changes:
            assert c.at_time < 20 * 300.0

    def test_degenerate_series_lengths(self):
        """Too-short series can never satisfy the run-of-3 gate."""
        assert detect_plan_changes(series([98.0])) == []
        assert detect_plan_changes(series([98.0, 140.0])) == []
        assert detect_plan_changes(series([np.nan] * 10)) == []

    def test_adaptive_partition_end_to_end(self):
        """monitor -> repair -> detect on a fully demand-driven adaptive
        trace: the realized schedule drifts every cycle, and the whole
        stack must stay crash-free with usable estimates throughout."""
        from repro.scenario import adaptive_synthetic_lights, synthetic_partitions

        lights = adaptive_synthetic_lights(2, alpha=1.0, kind="gap", seed=3)
        parts = synthetic_partitions(lights, 0.0, 9000.0, seed=3)
        partition = next(iter(parts.values()))
        ms = monitor_cycle(
            {partition.key: partition}, 1800.0, 9000.0, every_s=300.0, window_s=1800.0
        )[partition.key]
        assert ms.t.size > 0
        assert ms.valid_fraction() > 0.8
        changes = detect_plan_changes(repair_outliers(ms))
        for c in changes:
            assert 1800.0 <= c.at_time <= 9000.0

    def test_empty_monitoring_window_is_contained(self):
        """A horizon shorter than the trailing window yields an empty
        series, and every downstream stage degrades gracefully on it."""
        from repro.scenario import adaptive_synthetic_lights, synthetic_partitions

        lights = adaptive_synthetic_lights(1, alpha=1.0, kind="actuated", seed=9)
        parts = synthetic_partitions(lights, 0.0, 9000.0, seed=9)
        partition = next(iter(parts.values()))
        ms = monitor_cycle(
            {partition.key: partition}, 0.0, 600.0, every_s=300.0, window_s=1800.0
        )[partition.key]
        assert ms.t.size == 0
        assert np.isnan(ms.valid_fraction())
        assert repair_outliers(ms).cycle_s.size == 0
        assert detect_plan_changes(ms) == []
