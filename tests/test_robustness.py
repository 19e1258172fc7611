"""Failure injection and robustness tests.

The paper's raw feed contains packet loss, duplicated reports, GPS
dropouts and outliers; a production pipeline must shrug these off
rather than crash or silently corrupt estimates.
"""

import numpy as np
import pytest

from repro.core import (
    InsufficientDataError,
    PipelineConfig,
    identify_light,
    identify_many,
)
from repro.core.interpolation import regularize
from repro.matching import MatchConfig, match_trace, partition_by_light
from repro.matching.partition import LightPartition
from repro.trace.records import TraceArrays


def corrupt(trace: TraceArrays, rng, *, dup_frac=0.1, jitter_frac=0.1,
            dropout_frac=0.1) -> TraceArrays:
    """Inject duplicates, GPS dropouts, and wild outlier positions."""
    n = len(trace)
    # duplicated reports (same taxi re-sends the same fix)
    dup_idx = rng.choice(n, int(dup_frac * n), replace=False)
    dup = trace.subset(dup_idx)

    out = TraceArrays.concat([trace, dup])
    m = len(out)
    # GPS dropouts: flag a slice unavailable
    bad = rng.choice(m, int(dropout_frac * m), replace=False)
    out.gps_ok[bad] = False
    # wild outliers: teleport some fixes kilometers away
    wild = rng.choice(m, int(jitter_frac * m), replace=False)
    out.lon[wild] += rng.normal(0.0, 0.05, wild.size)
    out.lat[wild] += rng.normal(0.0, 0.05, wild.size)
    return out.sorted_by_time()


class TestCorruptedTraces:
    def test_pipeline_survives_corruption(self, city, trace, rng):
        dirty = corrupt(trace, rng)
        matched = match_trace(dirty, city.net)
        parts = partition_by_light(matched, city.net)
        assert parts, "partitions must survive corruption"
        ests, fails = identify_many(parts, 5400.0, backend="serial")
        assert ests, "identification must survive corruption"
        # accuracy should degrade gracefully, not collapse
        good = sum(1 for e in ests.values() if abs(e.cycle_s - 98.0) <= 3.0)
        assert good >= len(ests) // 2

    def test_unavailable_gps_never_matched(self, city, trace, rng):
        dirty = corrupt(trace, rng, dropout_frac=1.0)
        matched = match_trace(dirty, city.net)
        assert len(matched.trace) == 0  # every record flagged bad

    def test_teleported_fixes_unmatched(self, city, trace):
        far = trace.subset(np.arange(min(100, len(trace))))
        far.lon[:] += 1.0  # ~100 km away
        matched = match_trace(far, city.net, MatchConfig())
        assert (matched.segment_id == -1).all()


class TestDegenerateInputs:
    def test_identify_empty_partition(self, partitions):
        p = next(iter(partitions.values()))
        empty = p.time_window(1e9, 1e9 + 1)
        with pytest.raises(InsufficientDataError):
            identify_light(empty, 1e9 + 1)

    def test_identify_single_taxi_single_report(self, partitions):
        p = next(iter(partitions.values()))
        one = LightPartition(
            p.intersection_id, p.approach,
            p.trace.subset([0]), p.segment_id[:1], p.dist_to_stopline_m[:1],
        )
        with pytest.raises(InsufficientDataError):
            identify_light(one, float(one.trace.t[0]) + 1800.0)

    def test_constant_speed_partition(self, partitions):
        """All-identical speeds carry no periodicity: must raise or
        produce a finite estimate, never crash or loop."""
        p = next(iter(partitions.values()))
        # subset with a fancy index, not slice(None): slicing returns
        # *views*, and writing through them would corrupt the shared
        # session fixture for every later test
        frozen = LightPartition(
            p.intersection_id, p.approach,
            p.trace.subset(np.arange(len(p.trace))), p.segment_id.copy(),
            p.dist_to_stopline_m.copy(),
        )
        frozen.trace.speed_kmh[:] = 25.0
        try:
            est = identify_light(frozen, 5400.0)
            assert np.isfinite(est.cycle_s)
        except InsufficientDataError:
            pass

    def test_regularize_with_identical_timestamps(self):
        t = np.full(50, 100.0)
        v = np.arange(50.0)
        with pytest.raises(InsufficientDataError):
            regularize(t, v, 0.0, 1800.0)

    def test_nonfinite_speeds_rejected_upstream(self):
        with pytest.raises(ValueError):
            TraceArrays(
                taxi_id=[1], t=[0.0], lon=[[114.0]], lat=[22.5], speed_kmh=[1.0]
            )


class TestClockAnomalies:
    def test_out_of_order_reports_tolerated(self, city, trace, rng):
        shuffled = trace.subset(rng.permutation(len(trace)))
        parts = partition_by_light(match_trace(shuffled, city.net), city.net)
        for p in parts.values():
            assert np.all(np.diff(p.trace.t) >= 0), "partitions must re-sort"

    def test_future_timestamps_isolated(self, city, trace):
        warped = trace.subset(np.arange(len(trace)))
        k = len(warped) // 100
        warped.t[:k] += 1e7  # a batch of far-future records
        parts = partition_by_light(match_trace(warped, city.net), city.net)
        ests, _ = identify_many(parts, 5400.0, backend="serial")
        good = sum(1 for e in ests.values() if abs(e.cycle_s - 98.0) <= 3.0)
        assert good >= len(ests) // 2
