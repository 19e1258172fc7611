"""Unit tests for map matching (§IV, Fig. 5 rules)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.matching.mapmatch as mapmatch
from repro.matching.mapmatch import MatchConfig, _SegmentGrid, match_trace
from repro.network.geometry import heading_difference, point_segment_distance
from repro.network.roadnet import grid_network
from repro.trace.records import TraceArrays


@pytest.fixture(scope="module")
def net():
    return grid_network(2, 2, 500.0)


@pytest.fixture(scope="module")
def city_grid():
    """A 2k-light city: 32 x 32 intersections 300 m apart, 3,968 segments."""
    return grid_network(32, 32, 300.0)


def trace_at(net, x, y, heading, gps_ok=True):
    lon, lat = net.frame.to_geographic(np.atleast_1d(x), np.atleast_1d(y))
    n = lon.shape[0]
    return TraceArrays(
        taxi_id=np.arange(n) + 1,
        t=np.arange(n, dtype=float),
        lon=lon,
        lat=lat,
        speed_kmh=np.full(n, 20.0),
        heading_deg=np.broadcast_to(np.asarray(heading, float), (n,)).copy(),
        gps_ok=np.broadcast_to(np.asarray(gps_ok, bool), (n,)).copy(),
    )


def dense_match(trace, net, config=None, chunk_size=512):
    """The matcher the grid index replaced: every fix against every segment.

    A (fixes x segments) distance matrix per chunk, heading-incompatible
    entries masked to inf, ``np.argmin``'s first minimum as the winner.
    Returns (segment ids, distances) for the GPS-filtered trace.
    """
    config = MatchConfig() if config is None else config
    if config.require_gps_ok:
        trace = trace.subset(trace.gps_ok)
    n = len(trace)
    seg_ids = np.full(n, -1, dtype=np.int64)
    dists = np.full(n, np.nan)
    px, py = net.frame.to_local(trace.lon, trace.lat)
    with np.errstate(invalid="ignore"):
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            d = point_segment_distance(
                px[lo:hi, None], py[lo:hi, None],
                net.seg_ax[None, :], net.seg_ay[None, :],
                net.seg_bx[None, :], net.seg_by[None, :],
            )
            hd = heading_difference(trace.heading_deg[lo:hi, None], net.seg_heading[None, :])
            d = np.where(hd <= config.max_heading_diff_deg, d, np.inf)
            best = np.argmin(d, axis=1)
            best_d = d[np.arange(hi - lo), best]
            ok = best_d <= config.max_distance_m
            seg_ids[lo:hi][ok] = best[ok]
            dists[lo:hi][ok] = best_d[ok]
    return seg_ids, dists


def assert_equals_dense(trace, net, config=None):
    """Segment ids and distance bits equal the dense oracle's; the counts
    and the matched fixes add up to the input length."""
    m = match_trace(trace, net, config)
    seg_ids, dists = dense_match(trace, net, config)
    assert m.segment_id.dtype == seg_ids.dtype
    assert m.segment_id.tobytes() == seg_ids.tobytes()
    assert m.distance_m.tobytes() == dists.tobytes()
    matched = int((m.segment_id >= 0).sum())
    assert (m.n_gps_dropped + m.n_out_of_range + m.n_heading_conflict + matched
            == len(trace))
    return m


def city_fixes(net, rng, n):
    """Fixes over and around a grid city: random headings, NaN, inf, far
    fixes, fixes on segment lines, on grown-box edges and on cell borders."""
    side = (max(i.x for i in net.intersections), max(i.y for i in net.intersections))
    x = rng.uniform(-300.0, side[0] + 300.0, n)
    y = rng.uniform(-300.0, side[1] + 300.0, n)
    q = n // 10
    x[:q] = np.round(x[:q] / 300.0) * 300.0                    # on a NS road
    y[q:2 * q] = np.round(y[q:2 * q] / 300.0) * 300.0 + 120.0  # a box edge
    grid = _SegmentGrid.build(net, MatchConfig().max_distance_m)
    k = rng.integers(0, 1 + int(side[0] // grid.width), q)
    x[2 * q:3 * q] = grid.x0 + k * grid.width                  # a cell border
    y[3 * q:4 * q] = grid.y0 + k * grid.width
    x[4 * q:4 * q + 50] = np.nan
    y[4 * q + 50:4 * q + 100] = np.inf
    x[4 * q + 100:4 * q + 150] = -np.inf
    x[4 * q + 150:4 * q + 200] += 1000.0 + side[0]             # 1 km off the map
    return trace_at(net, x, y, rng.uniform(0.0, 360.0, n))


class TestNearestRule:
    def test_matches_nearest_compatible_segment(self, net):
        # point on the south edge road, heading east -> the eastbound segment
        tr = trace_at(net, 250.0, 5.0, 90.0)
        m = match_trace(tr, net)
        seg = net.segments[int(m.segment_id[0])]
        assert seg.heading == pytest.approx(90.0)
        assert m.distance_m[0] == pytest.approx(5.0, abs=0.1)

    def test_heading_conflict_picks_opposite_direction(self, net):
        # same point but heading west: the westbound twin must win even
        # though both are equidistant geometrically
        tr = trace_at(net, 250.0, 5.0, 270.0)
        m = match_trace(tr, net)
        seg = net.segments[int(m.segment_id[0])]
        assert seg.heading == pytest.approx(270.0)

    def test_far_point_unmatched(self, net):
        tr = trace_at(net, 250.0, 5000.0, 90.0)
        m = match_trace(tr, net, MatchConfig(max_distance_m=120.0))
        assert m.segment_id[0] == -1
        assert np.isnan(m.distance_m[0])
        assert (m.n_out_of_range, m.n_heading_conflict, m.n_gps_dropped) == (1, 0, 0)

    def test_incompatible_heading_everywhere_unmatched(self, net):
        # heading 45° is NS-ish... make the threshold tiny so nothing fits
        tr = trace_at(net, 250.0, 5.0, 45.0)
        m = match_trace(tr, net, MatchConfig(max_heading_diff_deg=10.0))
        assert m.segment_id[0] == -1
        assert (m.n_out_of_range, m.n_heading_conflict, m.n_gps_dropped) == (0, 1, 0)

    def test_equidistant_tie_goes_to_lowest_segment_id(self, net):
        # every segment at a corner node is 0 m away; heading 315° is 45°
        # off both the westbound and the northbound one
        tr = trace_at(net, 0.0, 0.0, 315.0)
        m = match_trace(tr, net)
        tied = np.flatnonzero(
            (point_segment_distance(0.0, 0.0, net.seg_ax, net.seg_ay, net.seg_bx, net.seg_by) == 0)
            & (heading_difference(315.0, net.seg_heading) <= MatchConfig().max_heading_diff_deg)
        )
        assert tied.size == 2
        assert m.segment_id[0] == tied.min() and m.distance_m[0] == 0.0


class TestGPSFilter:
    def test_gps_not_ok_dropped(self, net):
        tr = trace_at(net, 250.0, 5.0, 90.0, gps_ok=False)
        m = match_trace(tr, net)
        assert len(m.trace) == 0
        assert m.n_gps_dropped == 1

    def test_gps_filter_can_be_disabled(self, net):
        tr = trace_at(net, 250.0, 5.0, 90.0, gps_ok=False)
        m = match_trace(tr, net, MatchConfig(require_gps_ok=False))
        assert len(m.trace) == 1 and m.segment_id[0] >= 0
        assert m.n_gps_dropped == 0


class TestBatch:
    def test_matched_fraction(self, net):
        tr = trace_at(net, np.array([250.0, 250.0]), np.array([5.0, 9000.0]),
                      np.array([90.0, 90.0]))
        m = match_trace(tr, net)
        assert m.matched_fraction == pytest.approx(0.5)

    def test_matched_only(self, net):
        tr = trace_at(net, np.array([250.0, 250.0]), np.array([5.0, 9000.0]),
                      np.array([90.0, 90.0]))
        sub, segs = match_trace(tr, net).matched_only()
        assert len(sub) == 1 and segs.shape == (1,)

    def test_empty_trace(self, net):
        m = match_trace(TraceArrays.empty(), net)
        assert len(m.trace) == 0 and np.isnan(m.matched_fraction)
        assert (m.n_gps_dropped, m.n_out_of_range, m.n_heading_conflict) == (0, 0, 0)

    def test_end_to_end_fraction_high(self, trace, city):
        m = match_trace(trace, city.net)
        assert m.matched_fraction > 0.95

    def test_counts_add_up(self, net, rng):
        n = 400
        tr = trace_at(net, rng.uniform(-300, 800, n), rng.uniform(-300, 800, n),
                      rng.uniform(0, 360, n), gps_ok=rng.uniform(size=n) < 0.8)
        m = match_trace(tr, net, MatchConfig(max_heading_diff_deg=30.0))
        matched = int((m.segment_id >= 0).sum())
        assert min(m.n_gps_dropped, m.n_out_of_range, m.n_heading_conflict, matched) > 0
        assert m.n_gps_dropped == int((~tr.gps_ok).sum())
        assert m.n_gps_dropped + m.n_out_of_range + m.n_heading_conflict + matched == n


class TestDenseOracle:
    """The grid index picks what scoring every segment picks, bit for bit."""

    def test_city_trace(self, trace, city):
        m = assert_equals_dense(trace, city.net)
        assert m.n_gps_dropped > 0

    def test_city_trace_unfiltered(self, trace, city):
        assert_equals_dense(trace, city.net, MatchConfig(require_gps_ok=False))

    def test_2k_light_grid(self, city_grid):
        tr = city_fixes(city_grid, np.random.default_rng(24), 6000)
        m = assert_equals_dense(tr, city_grid)
        assert min(m.n_out_of_range, m.n_heading_conflict) > 0
        assert (m.segment_id >= 0).sum() > len(tr) // 2

    def test_fix_exactly_at_max_distance_matches(self, net, rng):
        # max_distance_m set to a fix's own distance bits: "at most" holds
        tr = trace_at(net, rng.uniform(0, 500, 50), rng.uniform(30, 90, 50), 90.0)
        seg_ids, dists = dense_match(tr, net)
        edge = float(dists[seg_ids >= 0].max())
        m = assert_equals_dense(tr, net, MatchConfig(max_distance_m=edge))
        assert m.distance_m.max() == edge

    @pytest.mark.parametrize("max_pairs", [1, 7, 1000])
    def test_blocks_of_any_size(self, city_grid, monkeypatch, max_pairs):
        # 1 gives every fix a block of its own, 7 one or a few fixes
        monkeypatch.setattr(mapmatch, "_MAX_PAIRS", max_pairs)
        tr = city_fixes(city_grid, np.random.default_rng(max_pairs), 800)
        assert_equals_dense(tr, city_grid)

    @settings(max_examples=40, deadline=None)
    @given(
        n_cols=st.integers(2, 7),
        n_rows=st.integers(2, 7),
        spacing=st.floats(20.0, 800.0),
        max_distance=st.one_of(st.floats(0.5, 3000.0), st.sampled_from([1.0, 120.0])),
        max_heading=st.one_of(st.floats(0.5, 180.0), st.sampled_from([60.0, 90.0])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzz(self, n_cols, n_rows, spacing, max_distance, max_heading, seed):
        net = grid_network(n_cols, n_rows, spacing)
        rng = np.random.default_rng(seed)
        n = 300
        pad = max_distance + spacing
        x = rng.uniform(-pad, (n_cols - 1) * spacing + pad, n)
        y = rng.uniform(-pad, (n_rows - 1) * spacing + pad, n)
        # a third on the roads, where the twins and the nodes tie
        x[:100] = np.round(x[:100] / spacing) * spacing
        y[100:200] = np.round(y[100:200] / spacing) * spacing
        heading = rng.choice([0.0, 90.0, 180.0, 270.0, 45.0], n)
        heading[::3] = rng.uniform(0.0, 360.0, len(heading[::3]))
        config = MatchConfig(max_distance_m=max_distance, max_heading_diff_deg=max_heading)
        assert_equals_dense(trace_at(net, x, y, heading), net, config)


class TestScale:
    @pytest.mark.parametrize("max_distance", [120.0, 1.0])
    def test_2k_light_grid_memory_bounded(self, city_grid, max_distance):
        # The dense matcher needed 131.9 MB here at 512-fix chunks.  At
        # max_distance_m = 1, a dense table of 1 m cells would hold ~86 M.
        tr = city_fixes(city_grid, np.random.default_rng(7), 20_000)
        tracemalloc.start()
        try:
            match_trace(tr, city_grid, MatchConfig(max_distance_m=max_distance))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MatchConfig(max_distance_m=0.0)
        with pytest.raises(ValueError):
            MatchConfig(max_heading_diff_deg=0.0)
