"""Unit tests for repro.lights.controller."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lights.controller import (
    SECONDS_PER_DAY,
    ManualController,
    PlanSwitch,
    PreProgrammedController,
    StaticController,
)
from repro.lights.schedule import LightSchedule, Phase


OFFPEAK = LightSchedule(90, 40, 0)
PEAK = LightSchedule(140, 70, 0)


class TestStatic:
    def test_same_schedule_forever(self):
        c = StaticController(OFFPEAK)
        assert c.schedule_at(0.0) is OFFPEAK
        assert c.schedule_at(1e7) is OFFPEAK

    def test_no_plan_switches(self):
        c = StaticController(OFFPEAK)
        assert c.plan_switch_times(0.0, 10 * SECONDS_PER_DAY) == []

    def test_phase_delegation(self):
        c = StaticController(LightSchedule(100, 40, 0))
        assert c.is_red(10.0) and c.phase(10.0) == Phase.RED
        assert c.is_green(50.0)
        assert c.wait_if_arriving(10.0) == pytest.approx(30.0)


class TestPreProgrammed:
    def make(self):
        return PreProgrammedController(
            [
                PlanSwitch(7 * 3600.0, PEAK),      # 07:00 peak
                PlanSwitch(10 * 3600.0, OFFPEAK),  # 10:00 off-peak
            ]
        )

    def test_plan_by_time_of_day(self):
        c = self.make()
        assert c.schedule_at(8 * 3600.0) is PEAK
        assert c.schedule_at(12 * 3600.0) is OFFPEAK

    def test_wraps_before_first_switch(self):
        c = self.make()
        # 02:00 precedes the first switch -> last plan of the day applies
        assert c.schedule_at(2 * 3600.0) is OFFPEAK

    def test_repeats_daily(self):
        c = self.make()
        t = 8 * 3600.0
        assert c.schedule_at(t + 3 * SECONDS_PER_DAY) is PEAK

    def test_plan_switch_times(self):
        c = self.make()
        times = c.plan_switch_times(0.0, 2 * SECONDS_PER_DAY)
        assert times == [
            7 * 3600.0,
            10 * 3600.0,
            SECONDS_PER_DAY + 7 * 3600.0,
            SECONDS_PER_DAY + 10 * 3600.0,
        ]

    def test_single_plan_has_no_switches(self):
        c = PreProgrammedController([PlanSwitch(0.0, OFFPEAK)])
        assert c.plan_switch_times(0.0, SECONDS_PER_DAY) == []

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PreProgrammedController([])

    def test_rejects_duplicate_starts(self):
        with pytest.raises(ValueError):
            PreProgrammedController(
                [PlanSwitch(0.0, PEAK), PlanSwitch(0.0, OFFPEAK)]
            )

    def test_rejects_out_of_day_start(self):
        with pytest.raises(ValueError):
            PlanSwitch(SECONDS_PER_DAY + 1, PEAK)

    @settings(max_examples=150, deadline=None)
    @given(
        starts=st.lists(st.floats(0.0, SECONDS_PER_DAY), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_schedule_at_equals_searchsorted(self, starts, data):
        """The plan lookup picks the index ``np.searchsorted(...,
        side="right") - 1`` would, for every float: day wraps, switch
        instants and one ulp either side, NaN and infinities."""
        c = PreProgrammedController(
            [PlanSwitch(s, LightSchedule(60.0 + i, 30.0, 0.0)) for i, s in enumerate(starts)]
        )
        table = np.array(sorted(starts))
        anchors = [s + k * SECONDS_PER_DAY for s in (*starts, 0.0) for k in (-1, 0, 1, 3)]
        near_anchor = st.sampled_from(anchors).flatmap(
            lambda a: st.sampled_from(
                [math.nextafter(a, -math.inf), a, math.nextafter(a, math.inf)]
            )
        )
        specials = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
        for t in data.draw(st.lists(st.one_of(near_anchor, specials, st.floats()), max_size=40)):
            want = int(np.searchsorted(table, float(t) % SECONDS_PER_DAY, side="right")) - 1
            assert c.schedule_at(t) is c.plans[want].schedule, t


class TestManual:
    def test_override_window(self):
        base = StaticController(OFFPEAK)
        c = ManualController(base, [(100.0, 200.0, PEAK)])
        assert c.schedule_at(50.0) is OFFPEAK
        assert c.schedule_at(150.0) is PEAK
        assert c.schedule_at(200.0) is OFFPEAK  # end exclusive

    def test_switch_times_include_override_edges(self):
        base = StaticController(OFFPEAK)
        c = ManualController(base, [(100.0, 200.0, PEAK)])
        assert c.plan_switch_times(0.0, 300.0) == [100.0, 200.0]

    def test_rejects_overlapping_overrides(self):
        base = StaticController(OFFPEAK)
        with pytest.raises(ValueError):
            ManualController(base, [(0.0, 100.0, PEAK), (50.0, 150.0, PEAK)])

    def test_rejects_inverted_window(self):
        base = StaticController(OFFPEAK)
        with pytest.raises(ValueError):
            ManualController(base, [(100.0, 100.0, PEAK)])

    def test_base_switches_merged(self):
        base = PreProgrammedController(
            [PlanSwitch(7 * 3600.0, PEAK), PlanSwitch(10 * 3600.0, OFFPEAK)]
        )
        c = ManualController(base, [(3600.0, 7200.0, PEAK)])
        times = c.plan_switch_times(0.0, SECONDS_PER_DAY)
        assert times == [3600.0, 7200.0, 7 * 3600.0, 10 * 3600.0]
