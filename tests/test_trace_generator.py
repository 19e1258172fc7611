"""Unit tests for repro.trace.generator and trace statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.geometry import LocalFrame
from repro.network.roadnet import grid_network
from repro.sim import ApproachConfig, CorridorSpec, simulate_corridor
from repro.sim.engine import SimulationResult
from repro.sim.vehicle import VehicleTrack
from repro.trace.fleet import DEFAULT_INTERVAL_MIXTURE, ReportingPolicy
from repro.trace import generator
from repro.trace.generator import OVERSPEED_KMH, TraceGenerator
from repro.trace.gps import GPSErrorModel
from repro.trace.records import TraceArrays
from repro.trace.stats import (
    compute_statistics,
    consecutive_pairs,
    records_per_slot,
)


@pytest.fixture(scope="module")
def net():
    return grid_network(2, 2, 500.0)


def make_track(net, segment_id=0, n=120, speed=8.0, t0=0.0):
    seg = net.segments[segment_id]
    dist = np.maximum(seg.length - speed * np.arange(n), 0.0)
    v = np.full(n, speed)
    v[dist == 0.0] = 0.0
    return VehicleTrack(
        vehicle_id=1,
        segment_id=segment_id,
        t=t0 + np.arange(n, dtype=float),
        dist_to_stopline_m=dist,
        speed_mps=v,
        passenger=np.zeros(n, dtype=bool),
    )


class TestSampleTrack:
    def test_positions_near_segment(self, net, rng):
        gen = TraceGenerator(net, gps=GPSErrorModel(sigma_m=2.0, outlier_prob=0.0,
                                                    unavailable_prob=0.0))
        track = make_track(net)
        out = gen.sample_track(track, taxi_id=42, rng=rng)
        assert out is not None and len(out) >= 1
        x, y = net.frame.to_local(out.lon, out.lat)
        seg = net.segments[0]
        from repro.network.geometry import point_segment_distance
        d = point_segment_distance(x, y, seg.ax, seg.ay, seg.bx, seg.by)
        assert np.all(d < 15.0)

    def test_speed_units_kmh(self, net, rng):
        gen = TraceGenerator(net)
        out = gen.sample_track(make_track(net, speed=10.0), 42, rng)
        moving = out.speed_kmh[out.speed_kmh > 0]
        assert np.all(np.abs(moving - 36.0) < 1.0)  # 10 m/s = 36 km/h

    def test_overspeed_flag(self, net, rng):
        gen = TraceGenerator(net)
        out = gen.sample_track(make_track(net, speed=25.0), 42, rng)  # 90 km/h
        assert out.overspeed.any()
        assert (out.speed_kmh[out.overspeed] > OVERSPEED_KMH).all()

    def test_heading_near_segment_heading(self, net, rng):
        gen = TraceGenerator(net, heading_noise_sd_deg=1.0)
        track = make_track(net, segment_id=0)
        seg = net.segments[0]
        out = gen.sample_track(track, 42, rng)
        from repro.network.geometry import heading_difference
        assert np.all(heading_difference(out.heading_deg, seg.heading) < 10.0)

    def test_short_track_may_yield_none(self, net, rng):
        gen = TraceGenerator(net, policy=ReportingPolicy(
            interval_mixture=((60.0, 1.0),), packet_loss_prob=0.0))
        tiny = make_track(net, n=3)
        # 3 s track with a 60 s interval: usually no report
        results = [gen.sample_track(tiny, 1, np.random.default_rng(i)) for i in range(30)]
        assert any(r is None for r in results)


class TestGenerate:
    def test_taxi_ids_distinct_per_track(self, net, rng):
        from repro.sim.engine import SimulationResult
        tracks = {0: [make_track(net), make_track(net)], 2: [make_track(net, 2)]}
        res = SimulationResult(tracks_by_segment=tracks, t0=0.0, t1=200.0)
        gen = TraceGenerator(net)
        out = gen.generate(res, rng)
        assert len(np.unique(out.taxi_id)) == 3

    def test_sorted_by_time(self, net, rng):
        from repro.sim.engine import SimulationResult
        tracks = {0: [make_track(net, t0=100.0), make_track(net, t0=0.0)]}
        res = SimulationResult(tracks_by_segment=tracks, t0=0.0, t1=300.0)
        out = TraceGenerator(net).generate(res, rng)
        assert np.all(np.diff(out.t) >= 0)

    def test_deterministic(self, net):
        from repro.sim.engine import SimulationResult
        res = SimulationResult({0: [make_track(net)]}, 0.0, 200.0)
        gen = TraceGenerator(net)
        a = gen.generate(res, np.random.default_rng(5))
        b = gen.generate(res, np.random.default_rng(5))
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.lon, b.lon)


class TestValidation:
    @pytest.mark.parametrize("sd", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_heading_noise(self, net, sd):
        with pytest.raises(ValueError, match="heading_noise_sd_deg"):
            TraceGenerator(net, heading_noise_sd_deg=sd)

    def test_accepts_noiseless_heading(self, net, rng):
        gen = TraceGenerator(net, heading_noise_sd_deg=0.0)
        out = gen.sample_track(make_track(net), 42, rng)
        np.testing.assert_array_equal(out.heading_deg, net.segments[0].heading)


# ----------------------------------------------------------------------
# Oracle: the per-track loop the batched generator replaced, with every
# draw of the fleet and GPS models spelled out in stream order.
# ----------------------------------------------------------------------


def _oracle_times(policy, t_start, t_end, rng):
    intervals = np.array([iv for iv, _ in policy.interval_mixture])
    probs = np.array([p for _, p in policy.interval_mixture])
    interval = float(rng.choice(intervals, p=probs))
    if t_end < t_start:
        return np.empty(0)
    phase = rng.uniform(0.0, interval)
    ticks = np.arange(t_start + phase, t_end + 1e-9, interval)
    if ticks.size == 0:
        return ticks
    ticks = ticks[rng.uniform(size=ticks.size) >= policy.packet_loss_prob]
    if policy.jitter_sd_s > 0 and ticks.size:
        ticks = ticks + rng.normal(0.0, policy.jitter_sd_s, size=ticks.size)
        ticks = np.sort(np.clip(ticks, t_start, t_end))
    return ticks


def _oracle_emit(gen, track, times, taxi_id, rng):
    seg = gen.net.segments[track.segment_id]
    idx = np.clip(np.round(times - track.t[0]).astype(np.int64), 0, len(track) - 1)
    dist = track.dist_to_stopline_m[idx]
    speed_kmh = track.speed_mps[idx] * 3.6
    L = max(seg.length, 1e-9)
    frac = 1.0 - np.clip(dist, 0.0, L) / L
    x = seg.ax + frac * (seg.bx - seg.ax)
    y = seg.ay + frac * (seg.by - seg.ay)
    n, gps = times.size, gen.gps
    is_outlier = rng.uniform(size=n) < gps.outlier_prob
    gps_ok = rng.uniform(size=n) >= gps.unavailable_prob
    sigma = np.where(is_outlier | ~gps_ok, gps.outlier_sigma_m, gps.sigma_m)
    xn = x + rng.normal(0.0, 1.0, size=n) * sigma
    yn = y + rng.normal(0.0, 1.0, size=n) * sigma
    lon, lat = gen.net.frame.to_geographic(xn, yn)
    heading = np.mod(
        seg.heading + rng.normal(0.0, gen.heading_noise_sd_deg, size=n), 360.0
    )
    return TraceArrays(
        taxi_id=np.full(n, taxi_id, dtype=np.int64), t=times, lon=lon, lat=lat,
        speed_kmh=speed_kmh, heading_deg=heading, gps_ok=gps_ok,
        overspeed=speed_kmh > OVERSPEED_KMH, passenger=track.passenger[idx],
    )


def _oracle_track(gen, track, taxi_id, rng):
    times = _oracle_times(gen.policy, float(track.t[0]), float(track.t[-1]), rng)
    return _oracle_emit(gen, track, times, taxi_id, rng) if times.size else None


def _oracle_journey(gen, legs, taxi_id, rng):
    if not legs:
        return None
    times = _oracle_times(gen.policy, float(legs[0].t[0]), float(legs[-1].t[-1]), rng)
    if times.size == 0:
        return None
    starts = np.array([float(tr.t[0]) for tr in legs])
    leg_idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, len(legs) - 1)
    parts = []
    for li in np.unique(leg_idx):
        tr = legs[int(li)]
        ts = np.clip(times[leg_idx == li], float(tr.t[0]), float(tr.t[-1]))
        parts.append(_oracle_emit(gen, tr, ts, taxi_id, rng))
    return TraceArrays.concat(parts).sorted_by_time()


def _oracle_concat(parts):
    return TraceArrays.concat([p for p in parts if p is not None]).sorted_by_time()


def _oracle_generate(gen, result, rng, first_taxi_id=10_000):
    taxis = [tr for sid in sorted(result.tracks_by_segment)
             for tr in result.tracks_by_segment[sid] if tr.is_taxi]
    return _oracle_concat([_oracle_track(gen, tr, first_taxi_id + i, rng)
                           for i, tr in enumerate(taxis)])


def _oracle_for_segment(gen, tracks, rng, first_taxi_id=10_000):
    return _oracle_concat([_oracle_track(gen, tr, first_taxi_id + i, rng)
                           for i, tr in enumerate(tracks) if tr.is_taxi])


def _oracle_journeys(gen, journeys, rng, taxi_fraction, first_taxi_id=50_000):
    return _oracle_concat([_oracle_journey(gen, legs, first_taxi_id + i, rng)
                           for i, legs in enumerate(journeys)
                           if rng.uniform() < taxi_fraction])


def assert_same_trace(got, want):
    """All ten columns byte-equal, dtypes included (``None`` for none)."""
    assert (got is None) == (want is None)
    if got is None:
        return
    for name in TraceArrays.COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _random_track(net, rng, *, segment_id, n, t0, is_taxi):
    seg = net.segments[segment_id]
    return VehicleTrack(
        vehicle_id=int(rng.integers(1_000_000)),
        segment_id=segment_id,
        t=t0 + np.arange(n, dtype=np.float64),
        # a little past both ends, so the geometry's clip is exercised
        dist_to_stopline_m=np.sort(rng.uniform(-5.0, seg.length + 5.0, n))[::-1],
        speed_mps=rng.uniform(0.0, 30.0, n),
        passenger=rng.uniform(size=n) < 0.5,
        is_taxi=is_taxi,
    )


_intervals = st.floats(0.5, 90.0)
_weights = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.01, 1.0))
_mixtures = st.one_of(
    _intervals.map(lambda iv: ((iv, 1.0),)),
    st.lists(st.tuples(_intervals, _weights), min_size=1, max_size=5)
    .filter(lambda ws: sum(w for _, w in ws) > 0)
    .map(lambda ws: tuple((iv, w / sum(w for _, w in ws)) for iv, w in ws)),
)
_policies = st.builds(
    ReportingPolicy,
    interval_mixture=_mixtures,
    packet_loss_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    jitter_sd_s=st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(5.0, 60.0)),
)
_gps_models = st.builds(
    GPSErrorModel,
    sigma_m=st.floats(0.0, 50.0),
    outlier_prob=st.floats(0.0, 1.0),
    outlier_sigma_m=st.floats(0.0, 200.0),
    unavailable_prob=st.floats(0.0, 1.0),
)
_track_specs = st.lists(
    st.tuples(
        st.integers(0, 7),                                  # segment
        st.one_of(st.integers(1, 4), st.integers(1, 300)),  # 1 Hz samples
        st.floats(0.0, 5000.0),                             # entry time
        st.booleans(),                                      # is a taxi
    ),
    max_size=8,
)


class TestBatchedEqualsPerTrack:
    """The batched emitter reproduces the per-track loop bit for bit."""

    @staticmethod
    def _assert_interval_draws_match(mixture, seed, n):
        policy = ReportingPolicy(interval_mixture=mixture)
        intervals = np.array([iv for iv, _ in mixture])
        probs = np.array([p for _, p in mixture])
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n):
            assert policy.sample_interval(a) == float(b.choice(intervals, p=probs))
        assert a.random() == b.random()  # the streams stay in step

    def test_interval_cdf_equals_choice(self):
        for seed in range(300):
            self._assert_interval_draws_match(DEFAULT_INTERVAL_MIXTURE, seed, 20)

    @settings(max_examples=60, deadline=None)
    @given(mixture=_mixtures, seed=st.integers(0, 2**32 - 1))
    def test_interval_cdf_equals_choice_drawn(self, mixture, seed):
        self._assert_interval_draws_match(mixture, seed, 50)

    @pytest.fixture(scope="class")
    def small_city_run(self, city):
        # ambient cars recorded too, so taxis and non-taxis interleave
        cfg = ApproachConfig(segment_length_m=400.0, record_all_vehicles=True)
        return city.simulation(cfg).run(0.0, 1200.0, seed=4, serial=True)

    def test_small_scenario_generate(self, city):
        result = city.simulation().run(0.0, 1800.0, seed=9, serial=True)
        gen = TraceGenerator(city.net)
        want = _oracle_generate(gen, result, np.random.default_rng(3))
        assert len(want) > 100
        assert_same_trace(gen.generate(result, np.random.default_rng(3)), want)

    def test_mixed_taxis_and_ambient_cars(self, city, small_city_run):
        tracks = small_city_run.all_tracks()
        assert any(tr.is_taxi for tr in tracks) and not all(tr.is_taxi for tr in tracks)
        gen = TraceGenerator(city.net)
        assert_same_trace(
            gen.generate(small_city_run, 8, first_taxi_id=7),
            _oracle_generate(gen, small_city_run, np.random.default_rng(8), 7),
        )
        assert_same_trace(
            gen.generate_for_segment(tracks, 8),
            _oracle_for_segment(gen, tracks, np.random.default_rng(8)),
        )

    def test_jitter_wider_than_the_grid(self, city, small_city_run):
        # jitter this wide reorders a taxi's ticks, so the sort matters
        policy = ReportingPolicy(interval_mixture=((1.0, 0.5), (3.0, 0.5)), jitter_sd_s=4.0)
        gen = TraceGenerator(city.net, policy=policy)
        assert_same_trace(
            gen.generate(small_city_run, 2),
            _oracle_generate(gen, small_city_run, np.random.default_rng(2)),
        )

    def test_empty_result(self, net):
        gen = TraceGenerator(net)
        rng = np.random.default_rng(1)
        empty = SimulationResult({}, 0.0, 100.0)
        assert_same_trace(gen.generate(empty, rng), _oracle_generate(gen, empty, rng))
        ambient = make_track(net)
        ambient.is_taxi = False
        only_ambient = SimulationResult({0: [ambient]}, 0.0, 200.0)
        assert_same_trace(
            gen.generate(only_ambient, rng), _oracle_generate(gen, only_ambient, rng)
        )

    def test_corridor_journeys(self):
        spec = CorridorSpec(n_lights=3, entry_rate_per_hour=400.0)
        res = simulate_corridor(spec, 0.0, 1800.0, seed=6)
        gen = TraceGenerator(res.net)
        for fraction in (1.0, 0.5):
            want = _oracle_journeys(gen, res.journeys, np.random.default_rng(2), fraction)
            assert len(want) > 100
            got = gen.generate_journeys(
                res.journeys, rng=np.random.default_rng(2), taxi_fraction=fraction
            )
            assert_same_trace(got, want)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for legs in res.journeys[:30] + [[]]:
            assert_same_trace(
                gen.sample_journey(legs, 3, rng_a), _oracle_journey(gen, legs, 3, rng_b)
            )

    @pytest.mark.parametrize("every", [1, 3, 10**9])
    def test_compaction_leaves_the_trace_unchanged(
        self, city, small_city_run, monkeypatch, every
    ):
        # each piece compacted alone, in blocks of three with a remainder,
        # and never (more pieces than either run draws); with and without
        # network-delay jitter
        monkeypatch.setattr(generator, "_COMPACT_EVERY", every)
        policy = ReportingPolicy(jitter_sd_s=0.0)
        for gen in (TraceGenerator(city.net), TraceGenerator(city.net, policy=policy)):
            assert_same_trace(
                gen.generate(small_city_run, 5),
                _oracle_generate(gen, small_city_run, np.random.default_rng(5)),
            )
        spec = CorridorSpec(n_lights=3, entry_rate_per_hour=400.0)
        res = simulate_corridor(spec, 0.0, 1200.0, seed=6)
        gen = TraceGenerator(res.net)
        want = _oracle_journeys(gen, res.journeys, np.random.default_rng(2), 0.85)
        assert len(want) > 100
        got = gen.generate_journeys(res.journeys, rng=np.random.default_rng(2))
        assert_same_trace(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        policy=_policies,
        gps=_gps_models,
        heading_sd=st.floats(0.0, 20.0),
        specs=_track_specs,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_configs(self, net, policy, gps, heading_sd, specs, seed):
        data = np.random.default_rng(seed)
        tracks = [
            _random_track(net, data, segment_id=sid, n=n, t0=t0, is_taxi=taxi)
            for sid, n, t0, taxi in specs
        ]
        gen = TraceGenerator(net, policy=policy, gps=gps, heading_noise_sd_deg=heading_sd)
        result = SimulationResult({0: tracks[:3], 5: tracks[3:]}, 0.0, 5300.0)
        assert_same_trace(
            gen.generate(result, seed), _oracle_generate(gen, result, np.random.default_rng(seed))
        )
        assert_same_trace(
            gen.generate_for_segment(tracks, seed),
            _oracle_for_segment(gen, tracks, np.random.default_rng(seed)),
        )
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, tr in enumerate(tracks):
            assert_same_trace(gen.sample_track(tr, i, rng_a), _oracle_track(gen, tr, i, rng_b))
        assert_same_trace(
            gen.sample_journey(tracks, 1, rng_a), _oracle_journey(gen, tracks, 1, rng_b)
        )


class TestStats:
    def test_consecutive_pairs_only_same_taxi(self):
        from repro.trace.records import TraceArrays
        tr = TraceArrays(
            taxi_id=[1, 1, 2, 2, 2],
            t=[0.0, 30.0, 10.0, 25.0, 55.0],
            lon=np.full(5, 114.05),
            lat=np.full(5, 22.54),
            speed_kmh=[0, 10, 20, 30, 40.0],
        )
        pairs = consecutive_pairs(tr)
        assert len(pairs) == 3
        np.testing.assert_allclose(np.sort(pairs.dt_s), [15.0, 30.0, 30.0])

    def test_records_per_slot(self):
        from repro.trace.records import TraceArrays
        tr = TraceArrays(
            taxi_id=[1, 1, 1],
            t=[0.0, 601.0, 86_400.0 + 30.0],  # slots 0, 1, 0 (next day)
            lon=np.full(3, 114.05),
            lat=np.full(3, 22.54),
            speed_kmh=np.zeros(3),
        )
        starts, counts = records_per_slot(tr, slot_s=600.0)
        assert counts[0] == 2 and counts[1] == 1
        assert counts.sum() == 3
        assert starts.shape == counts.shape == (144,)

    def test_records_per_slot_validation(self):
        from repro.trace.records import TraceArrays
        with pytest.raises(ValueError):
            records_per_slot(TraceArrays.empty(), slot_s=7.0)

    def test_compute_statistics_smoke(self, trace):
        st = compute_statistics(trace, LocalFrame())
        assert st.n_records == len(trace)
        assert st.n_taxis > 0
        assert 5.0 <= st.mean_update_interval_s <= 40.0
        assert 0.0 <= st.stationary_fraction <= 1.0
        assert st.row()  # printable
