"""Tests for the corridor simulation and journey-level trace sampling."""

import numpy as np
import pytest

from repro.core import identify_many
from repro.matching import match_trace, partition_by_light
from repro.sim import CorridorSpec, simulate_corridor
from repro.trace import TraceGenerator


@pytest.fixture(scope="module")
def corridor():
    spec = CorridorSpec(
        n_lights=4, segment_length_m=500.0, entry_rate_per_hour=450.0,
        cycle_s=100.0, red_s=45.0,
    )
    return spec, simulate_corridor(spec, 0.0, 5400.0, seed=5)


class TestSpec:
    def test_green_wave_offsets(self):
        spec = CorridorSpec(n_lights=3, segment_length_m=550.0)
        offs = spec.green_wave_offsets()
        tt = 550.0 / spec.params.free_speed_mps
        assert offs == (0.0, pytest.approx(tt), pytest.approx(2 * tt))

    def test_validation(self):
        with pytest.raises(ValueError):
            CorridorSpec(n_lights=0)
        with pytest.raises(ValueError):
            CorridorSpec(red_s=200.0, cycle_s=100.0)
        with pytest.raises(ValueError):
            CorridorSpec(n_lights=3, offsets_s=(0.0, 1.0))


class TestTopology:
    def test_network_shape(self, corridor):
        spec, res = corridor
        assert len(res.net.signalized_intersections()) == spec.n_lights
        # entry + exit feeders
        assert len(res.net.intersections) == spec.n_lights + 2
        assert len(res.net.segments) == spec.n_lights + 1

    def test_approach_controlled_by_its_light(self, corridor):
        spec, res = corridor
        for i in range(spec.n_lights):
            seg = res.net.segments[i]
            assert seg.to_id == i
            ctl = res.signals[i].controller_for_segment(seg)
            sched = ctl.schedule_at(0.0)
            assert sched.cycle_s == spec.cycle_s
            assert sched.red_s == pytest.approx(spec.red_s)


class TestJourneys:
    def test_identity_preserved(self, corridor):
        spec, res = corridor
        for legs in res.journeys:
            sids = [tr.segment_id for tr in legs]
            assert sids == sorted(sids)
            assert sids == list(range(sids[0], sids[0] + len(sids)))
            for a, b in zip(legs, legs[1:]):
                assert b.entered_at >= a.exited_at - 1.0

    def test_most_journeys_complete(self, corridor):
        spec, res = corridor
        full = [j for j in res.journeys if len(j) == spec.n_lights]
        assert len(full) > 0.7 * len(res.journeys)

    def test_no_leg_shared_between_journeys(self, corridor):
        _, res = corridor
        seen = set()
        for legs in res.journeys:
            for tr in legs:
                key = id(tr)
                assert key not in seen
                seen.add(key)

    def test_green_wave_beats_antiwave(self):
        wave_spec = CorridorSpec(n_lights=3, entry_rate_per_hour=250.0)
        wave = simulate_corridor(wave_spec, 0.0, 2700.0, seed=3)
        # adversarial offsets: each platoon arrives exactly as the next
        # light turns red, waiting out the full red at every link
        red, cycle = 45.0, 100.0
        tt = 500.0 / wave_spec.params.free_speed_mps
        a1 = red + tt                   # arrival at light 1
        a2 = a1 + red + tt              # after waiting the red, light 2
        anti_spec = CorridorSpec(
            n_lights=3, entry_rate_per_hour=250.0,
            offsets_s=(0.0, a1 % cycle, a2 % cycle),
        )
        anti = simulate_corridor(anti_spec, 0.0, 2700.0, seed=3)
        tw = wave.corridor_travel_times()
        ta = anti.corridor_travel_times()
        assert tw.size and ta.size
        assert tw.mean() + 20.0 < ta.mean(), "coordination must reduce travel time"


class TestJourneyTraces:
    def test_single_taxi_spans_segments(self, corridor):
        spec, res = corridor
        gen = TraceGenerator(res.net)
        trace = gen.generate_journeys(res.journeys, rng=np.random.default_rng(2),
                                      taxi_fraction=1.0)
        # at least one taxi must report on several different segments
        m = match_trace(trace, res.net)
        sub, segs = m.matched_only()
        spans = {}
        for tid, sid in zip(sub.taxi_id, segs):
            spans.setdefault(int(tid), set()).add(int(sid))
        assert max(len(v) for v in spans.values()) >= 3

    def test_taxi_fraction_respected(self, corridor):
        spec, res = corridor
        gen = TraceGenerator(res.net)
        all_t = gen.generate_journeys(res.journeys, rng=np.random.default_rng(3),
                                      taxi_fraction=1.0)
        some_t = gen.generate_journeys(res.journeys, rng=np.random.default_rng(3),
                                       taxi_fraction=0.3)
        n_all = np.unique(all_t.taxi_id).size
        n_some = np.unique(some_t.taxi_id).size
        assert n_some < 0.6 * n_all

    def test_corridor_identification_end_to_end(self, corridor):
        """Identify every corridor light from journey traces."""
        spec, res = corridor
        gen = TraceGenerator(res.net)
        trace = gen.generate_journeys(res.journeys, rng=np.random.default_rng(4),
                                      taxi_fraction=1.0)
        parts = partition_by_light(match_trace(trace, res.net), res.net)
        ests, fails = identify_many(parts, 5400.0, backend="serial")
        locked = sum(1 for e in ests.values() if abs(e.cycle_s - spec.cycle_s) <= 3.0)
        assert locked >= spec.n_lights - 1
