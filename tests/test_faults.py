"""Fault-injection coverage for the identification pipeline.

Historical bug: the per-light containment caught only
``InsufficientDataError``, so any other exception raised inside one
light's pipeline — a ``ValueError`` from degenerate inputs, a crash in
the change-point stage — propagated out of the worker and aborted the
entire ``identify_many`` pool.  These tests inject failure modes (empty
phase window, all-stopped profile, zero-duration stops, corrupt arrays,
degenerate red estimates, a crashing whole-city kernel) and assert the
blast radius is one light.
"""

import numpy as np
import pytest

from repro.core import PipelineConfig, identify_cycles, identify_light, identify_many
from repro.core import batch as batch_mod
from repro.core.cycle import CycleConfig, FoldScanner
from repro.core.monitor import monitor_cycle, repair_outliers
from repro.core.redlight import estimate_red_duration
from repro.core.signal_types import InsufficientDataError, RedEstimate
from repro.matching.partition import LightPartition
from repro.obs import StageTelemetry
from repro.trace.records import TraceArrays
from repro.trace.store import PartitionStore


def synth_partition(n=600, span_s=5400.0, period=98.0, speed=None, seed=0, iid=0):
    """A synthetic one-light partition with controllable speeds."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, span_s, n))
    taxi = rng.integers(0, 40, n)
    if speed is None:
        v = np.clip(25.0 + 20.0 * np.cos(2 * np.pi * t / period)
                    + rng.normal(0.0, 3.0, n), 0.0, None)
    else:
        v = np.broadcast_to(np.asarray(speed, dtype=float), t.shape).copy()
    trace = TraceArrays(taxi, t, np.zeros(n), np.zeros(n), v)
    return LightPartition(
        intersection_id=iid,
        approach="NS",
        trace=trace,
        segment_id=np.zeros(n, dtype=np.int64),
        dist_to_stopline_m=np.full(n, 40.0),
    )


class TestIdentifyManyContainment:
    def test_empty_phase_window_contained(self, partitions):
        # Records stop at t=4200 but identification runs at 5400: the
        # cycle window still has data, the phase window has none.
        key = sorted(partitions)[0]
        city = dict(partitions)
        city[key] = city[key].time_window(0.0, 4200.0)
        ests, fails = identify_many(city, 5400.0, backend="serial")
        assert len(ests) + len(fails) == len(city)
        assert key in fails
        assert fails[key].error_type == "InsufficientDataError"

    @pytest.mark.slow
    def test_corrupt_arrays_do_not_abort_pool(self, partitions):
        key = sorted(partitions)[0]
        p = partitions[key]
        city = dict(partitions)
        city[key] = LightPartition(
            p.intersection_id, p.approach, p.trace, p.segment_id, np.empty(3)
        )
        # In-process and pooled runs must survive — the historical
        # failure was the ValueError escaping a pmap worker mid-chunk.
        for kwargs in ({"backend": "serial"}, {"backend": "shard", "max_workers": 2}):
            ests, fails = identify_many(city, 5400.0, **kwargs)
            assert key in fails
            assert fails[key].error_type == "ValueError"
            assert fails[key].stage == "samples"
            assert len(ests) >= len(city) - len(fails)

    def test_all_stopped_profile_contained(self):
        # Every report at 0 km/h: a flat, zero-variance signal.
        dead = synth_partition(speed=0.0)
        healthy = synth_partition(seed=1, iid=1)
        city = {dead.key: dead, healthy.key: healthy}
        ests, fails = identify_many(city, 5400.0, backend="serial")
        assert len(ests) + len(fails) == 2
        assert healthy.key in ests or healthy.key in fails  # run completed

    def test_crash_in_changepoint_attributed_to_stage(self, partitions, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected changepoint crash")

        monkeypatch.setattr(batch_mod, "find_signal_change", boom)
        ests, fails = identify_many(partitions, 5400.0, backend="serial")
        assert not ests
        assert all(f.error_type == "RuntimeError" for f in fails.values())
        assert all(f.stage == "changepoint" for f in fails.values())


    def test_superposition_kernel_crash_fails_only_its_light(
        self, partitions, monkeypatch
    ):
        ref_est, ref_fail = identify_many(partitions, 5400.0, backend="batched")
        key = sorted(ref_est)[0]
        cfg = PipelineConfig()
        target, _v = PartitionStore.from_partitions(partitions).window_samples(
            key, 5400.0 - cfg.phase_window_s, 5400.0, cfg.max_sample_dist_m
        )
        real = batch_mod.cycle_profile_batch

        def breaks_on_target(entries, **kwargs):
            if any(np.array_equal(t, target) for t, *_rest in entries):
                raise RuntimeError("injected superposition crash")
            return real(entries, **kwargs)

        monkeypatch.setattr(batch_mod, "cycle_profile_batch", breaks_on_target)
        est, fail = identify_many(partitions, 5400.0, backend="batched")
        assert sorted(fail) == sorted(set(ref_fail) | {key})
        assert fail[key].stage == "superposition"
        assert fail[key].error_type == "RuntimeError"
        assert fail[key].message == "injected superposition crash"
        assert sorted(est) == sorted(set(ref_est) - {key})
        for other in est:
            a, b = est[other], ref_est[other]
            assert (a.cycle_s, a.red_s, a.schedule.offset_s) == (
                b.cycle_s, b.red_s, b.schedule.offset_s
            )
            assert (a.change.red_to_green_s, a.change.green_to_red_s) == (
                b.change.red_to_green_s, b.change.green_to_red_s
            )


class TestIdentifyLightRaises:
    def test_original_exception_and_stage(self, partitions, monkeypatch):
        class Injected(Exception):
            pass

        def boom(*args, **kwargs):
            raise Injected("injected changepoint crash")

        monkeypatch.setattr(batch_mod, "find_signal_change", boom)
        tel = StageTelemetry()
        with pytest.raises(Injected, match="injected changepoint crash"):
            identify_light(partitions[sorted(partitions)[0]], 5400.0, telemetry=tel)
        assert tel.last_stage == "changepoint"
        assert tel.counters["samples_primary"] > 0


class TestRedClamp:
    def _degenerate_red(self, red_s):
        edges = np.arange(3, dtype=float) * 20.14
        return RedEstimate(
            red_s=red_s, border_bin=0, bin_edges=edges,
            bin_counts=np.zeros(2, dtype=np.int64),
            n_stops_used=0, n_stops_rejected=0,
        )

    def test_zero_red_estimate_no_longer_raises(self, partitions, monkeypatch):
        # Border-interval estimator returning ~0 used to hit
        # check_positive("red_s") inside find_signal_change.
        monkeypatch.setattr(
            batch_mod, "estimate_red_duration",
            lambda *a, **k: self._degenerate_red(0.0),
        )
        key = sorted(partitions)[0]
        est = identify_light(
            partitions[key], 5400.0, config=PipelineConfig(refine_red=False)
        )
        assert est.red_s >= batch_mod._MIN_RED_S

    def test_degenerate_refined_red_clamped(self, partitions, monkeypatch):
        monkeypatch.setattr(
            batch_mod, "refine_red_from_change", lambda *a, **k: 0.0
        )
        key = sorted(partitions)[0]
        est = identify_light(partitions[key], 5400.0)
        assert est.red_s >= batch_mod._MIN_RED_S

    def test_zero_duration_stops_filtered(self):
        durations = np.concatenate([np.zeros(20), np.full(8, 30.0)])
        red = estimate_red_duration(durations, 98.0)
        assert red.n_stops_used == 8
        assert red.red_s > 0.0

    def test_only_zero_duration_stops_is_insufficient(self):
        with pytest.raises(InsufficientDataError):
            estimate_red_duration(np.zeros(30), 98.0)


class TestScanBand:
    def test_scan_fold_respects_upper_bound(self):
        # True period 100.1 s, band capped at 100.0: the float arange
        # grid used to emit a candidate half a step past the cap.
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 3000.0, 400))
        v = np.cos(2 * np.pi * t / 100.1)
        c, z = FoldScanner(t, v, 40.0, 100.0).scan(99.0, 1.0, 0.55, 4.0)
        assert c <= 100.0
        assert np.isfinite(z)

    def test_refined_cycle_stays_in_band(self):
        p = synth_partition(n=500, span_s=3000.0, seed=5)
        cfg = CycleConfig(min_cycle_s=40.0, max_cycle_s=98.4)
        cycles, _, _ = identify_cycles(
            {p.key: p}, 3000.0, config=PipelineConfig(window_s=3000.0, cycle=cfg)
        )
        assert cfg.min_cycle_s <= cycles[p.key].cycle_s <= cfg.max_cycle_s

    def test_cycle_counters_flow_to_telemetry(self):
        p = synth_partition(n=500, span_s=3000.0, seed=6)
        cycles, _, tels = identify_cycles(
            {p.key: p}, 3000.0, config=PipelineConfig(window_s=3000.0)
        )
        assert p.key in cycles
        assert tels[p.key].counters["cycle_candidates_scanned"] >= 1
        assert tels[p.key].counters.get("cycle_refine_scans", 0) == 1


class TestMonitorContainment:
    def test_monitor_survives_injected_crashes(self, partitions, monkeypatch):
        real = batch_mod._select_cycle
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("injected window crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "_select_cycle", flaky)
        key = sorted(partitions)[0]
        series = monitor_cycle(partitions, 0.0, 5400.0, keys=[key], every_s=600.0)[key]
        assert series.n_errors == calls["n"] // 2 > 0
        assert len(series) == calls["n"]
        # errors land as NaN windows but the series still has estimates
        assert np.isnan(series.cycle_s).sum() == series.n_errors
        assert np.isfinite(series.cycle_s).sum() > 0
        repaired = repair_outliers(series)
        assert repaired.n_errors == series.n_errors

    def test_monitor_on_all_stopped_partition(self):
        dead = synth_partition(speed=0.0)
        series = monitor_cycle({dead.key: dead}, 0.0, 5400.0, every_s=900.0)[dead.key]
        # flat windows either estimate something or fail cleanly — no raise
        assert len(series) > 0
