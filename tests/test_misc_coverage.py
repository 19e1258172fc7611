"""Edge-case tests for corners not covered by the per-module suites."""

import io

import numpy as np
import pytest

from repro.navigation.experiment import DistanceBucket
from repro.sim.corridor import CorridorSpec, _FixedArrivals, simulate_corridor
from repro.trace import TraceGenerator


class TestFixedArrivals:
    def test_window_filtering(self):
        fa = _FixedArrivals((1.0, 5.0, 9.0, 100.0))
        np.testing.assert_allclose(fa.sample(2.0, 50.0), [5.0, 9.0])

    def test_sorted_even_if_unsorted_input(self):
        fa = _FixedArrivals((9.0, 1.0, 5.0))
        out = fa.sample(0.0, 10.0)
        assert np.all(np.diff(out) >= 0)

    def test_mean_rate(self):
        fa = _FixedArrivals((0.0, 1.0, 2.0, 3.0))
        assert fa.mean_rate(0.0, 3600.0) == pytest.approx(4.0)
        assert fa.mean_rate(5.0, 5.0) == 0.0


class TestCorridorViews:
    def test_tracks_by_segment_regroups(self):
        spec = CorridorSpec(n_lights=2, entry_rate_per_hour=200.0)
        res = simulate_corridor(spec, 0.0, 1200.0, seed=1)
        by_seg = res.tracks_by_segment()
        assert set(by_seg) <= {0, 1}
        total = sum(len(v) for v in by_seg.values())
        assert total == sum(len(j) for j in res.journeys)
        for tracks in by_seg.values():
            entries = [tr.entered_at for tr in tracks]
            assert entries == sorted(entries)


class TestJourneySamplingEdges:
    def test_empty_legs_returns_none(self, rng):
        spec = CorridorSpec(n_lights=2, entry_rate_per_hour=200.0)
        res = simulate_corridor(spec, 0.0, 600.0, seed=1)
        gen = TraceGenerator(res.net)
        assert gen.sample_journey([], 1, rng) is None

    def test_journey_reports_strictly_ordered(self, rng):
        spec = CorridorSpec(n_lights=3, entry_rate_per_hour=300.0)
        res = simulate_corridor(spec, 0.0, 1800.0, seed=2)
        gen = TraceGenerator(res.net)
        for legs in res.journeys[:20]:
            out = gen.sample_journey(legs, 7, rng)
            if out is not None:
                assert np.all(np.diff(out.t) >= 0)
                assert (out.taxi_id == 7).all()


class TestDistanceBucket:
    def test_zero_baseline_saving(self):
        b = DistanceBucket(distance_km=1.0, n_trips=0,
                           baseline_mean_s=0.0, aware_mean_s=0.0)
        assert b.saving_fraction == 0.0

    def test_row_format(self):
        b = DistanceBucket(distance_km=5.0, n_trips=10,
                           baseline_mean_s=400.0, aware_mean_s=340.0)
        assert "15.0%" in b.row()


class TestCliWithoutPlans:
    def test_identify_without_ground_truth(self, tmp_path, capsys):
        """A network file without stored plans must still identify
        (no dCycle column, no crash)."""
        from repro.cli import main
        from repro.eval import simulate_and_partition
        from repro.network.serialization import save_network
        from repro.scenario import small_scenario
        from repro.trace import write_trace

        scn = small_scenario(rate_per_hour=400.0)
        trace, _ = simulate_and_partition(scn, 0.0, 3600.0, seed=5, max_workers=1)
        prefix = str(tmp_path / "anon")
        with open(f"{prefix}.trace.txt", "w", encoding="utf-8") as fp:
            write_trace(trace, fp)
        with open(f"{prefix}.net.json", "w", encoding="utf-8") as fp:
            save_network(scn.net, fp)  # no plans

        rc = main(["identify", "--city", prefix, "--at", "3600", "--backend", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dCycle" not in out
        assert "cycle" in out

    def test_evaluate_requires_plans(self, tmp_path, capsys):
        from repro.cli import main
        from repro.network.serialization import save_network
        from repro.scenario import small_scenario

        scn = small_scenario()
        prefix = str(tmp_path / "noplan")
        with open(f"{prefix}.net.json", "w", encoding="utf-8") as fp:
            save_network(scn.net, fp)
        with open(f"{prefix}.trace.txt", "w", encoding="utf-8") as fp:
            fp.write("")
        rc = main(["evaluate", "--city", prefix, "--times", "100"])
        assert rc == 2
