"""End-to-end integration tests across the whole stack."""

import io

import numpy as np
import pytest

from repro._util import circular_diff
from repro.core import identify_many, monitor_cycle, detect_plan_changes, repair_outliers
from repro.eval import compare, evaluate_at_times, simulate_and_partition
from repro.lights.intersection import SignalPlan, attach_signals_to_network
from repro.matching import match_trace, partition_by_light
from repro.navigation import (
    EstimatedProvider,
    GroundTruthProvider,
    TravelConfig,
    TripSimulator,
    navigate,
    shortest_drive_path,
)
from repro.network import grid_network
from repro.scenario import small_scenario
from repro.sim import ApproachConfig, CitySimulation
from repro.trace import TraceGenerator, read_trace, write_trace

# Full-stack sweeps (multi-second simulations, plan-change detection);
# the fast CI tier skips them.
pytestmark = pytest.mark.slow


class TestSimulateToIdentify:
    def test_full_stack_accuracy(self, city, partitions):
        """simulate → report → match → partition → identify, scored."""
        ests, fails = identify_many(partitions, 5400.0, backend="serial")
        assert len(ests) >= 6
        good = 0
        for key, est in ests.items():
            iid, app = key
            truth = city.truth_at(iid, app, 5400.0)
            err = compare(est, truth)
            if abs(err.cycle_s) <= 3.0 and abs(err.change_s) <= 10.0:
                good += 1
        assert good >= 5

    def test_wire_format_does_not_change_results(self, city, trace):
        """Serializing the trace to the Table I text format and parsing
        it back must yield the same identification outcome."""
        buf = io.StringIO()
        write_trace(trace.time_window(0.0, 3600.0), buf)
        buf.seek(0)
        back = read_trace(buf)
        m1 = match_trace(trace.time_window(0.0, 3600.0), city.net)
        m2 = match_trace(back, city.net)
        # 1e-6 deg quantization and 1 s rounding: nearly all records
        # must land on the same segment
        same = (m1.segment_id == m2.segment_id).mean()
        assert same > 0.98


class TestScheduleChangeDetection:
    def test_detects_planted_plan_switch(self):
        """A light switching plans mid-simulation must be caught by the
        §VII monitor."""
        net = grid_network(2, 2, 500.0)
        plans = {
            i: [
                SignalPlan(98.0, 39.0, start_second_of_day=0.0),
                SignalPlan(150.0, 75.0, start_second_of_day=2.0 * 3600.0),
            ]
            for i in range(4)
        }
        signals = attach_signals_to_network(net, plans)
        rates = {s.id: 500.0 for s in net.segments}
        sim = CitySimulation(net, signals, rates, ApproachConfig(segment_length_m=400.0))
        res = sim.run(0.0, 4 * 3600.0, seed=5)
        gen = TraceGenerator(net)
        tr = gen.generate(res, rng=np.random.default_rng(2))
        parts = partition_by_light(match_trace(tr, net), net)

        p = parts[(0, "EW")]
        series = monitor_cycle(
            {p.key: p}, 0.0, 4 * 3600.0, every_s=300.0, window_s=1800.0
        )[p.key]
        changes = detect_plan_changes(repair_outliers(series))
        assert changes, "plan switch missed"
        best = min(changes, key=lambda c: abs(c.at_time - 2.0 * 3600.0))
        # detection latency is bounded by the monitoring window
        assert abs(best.at_time - 2.0 * 3600.0) <= 2100.0
        assert best.new_cycle_s == pytest.approx(150.0, abs=8.0)


class TestIdentifiedSchedulesDriveNavigation:
    def test_estimated_provider_saves_time(self, city, partitions):
        """Close the loop: identify schedules from traces, then use them
        for light-aware navigation on the same ground truth."""
        ests, _ = identify_many(partitions, 5400.0, backend="serial")
        schedules = {k: e.schedule for k, e in ests.items()}
        sim = TripSimulator(city.net, city.signals, TravelConfig(11.0))
        est_provider = EstimatedProvider(schedules)
        oracle = GroundTruthProvider(city.signals)

        base_total = aware_total = oracle_total = 0.0
        for depart in (6000.0, 6100.0, 6234.0, 6391.0):
            base = sim.simulate_path(shortest_drive_path(city.net, 0, 3), depart)
            aware = navigate(sim, est_provider, 0, 3, depart)
            best = navigate(sim, oracle, 0, 3, depart)
            base_total += base.total_time_s
            aware_total += aware.total_time_s
            oracle_total += best.total_time_s
        assert oracle_total <= base_total + 1e-6
        # schedules identified from traces should recover most of the
        # oracle's advantage (or at least not hurt)
        assert aware_total <= base_total * 1.05


class TestEvalHarnessEndToEnd:
    def test_simulate_and_partition_contract(self):
        scn = small_scenario(rate_per_hour=300.0)
        trace, parts = simulate_and_partition(scn, 0.0, 1800.0, seed=3, max_workers=1)
        assert len(trace) > 100
        assert parts and all(len(p) > 0 for p in parts.values())

    def test_full_evaluation_run(self, city, partitions):
        res = evaluate_at_times(
            partitions, city.truth_at, [4500.0, 5400.0], backend="serial"
        )
        assert len(res) == 16
        ok = ~np.isnan(res.cycle_errors)
        assert ok.sum() >= 12
