"""Observability layer: StageTelemetry, LightFailure, RunReport.

Ends with the acceptance scenario of the fault-containment issue: a
citywide ``identify_many`` run with ~10% deliberately poisoned
partitions completes under the process pool, reports the poisoned
lights in the failure map with exception class + stage, and exports
per-stage wall time and counter totals as JSON.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core import identify_many
from repro.eval import evaluate_at_times
from repro.matching.partition import LightPartition
from repro.network.roadnet import Approach
from repro.obs import LightFailure, RunReport, StageTelemetry, format_light_key


def poison_partition(p: LightPartition) -> LightPartition:
    """Corrupt a partition's parallel arrays (length mismatch) so the
    pipeline's very first windowing step raises a ValueError."""
    return LightPartition(
        p.intersection_id, p.approach, p.trace, p.segment_id, np.empty(3)
    )


class TestStageTelemetry:
    def test_stage_times_accumulate(self):
        tel = StageTelemetry()
        with tel.stage("a"):
            sum(range(1000))
        with tel.stage("a"):
            pass
        with tel.stage("b"):
            pass
        assert tel.stage_calls["a"] == 2
        assert tel.stage_s["a"] > 0.0
        assert tel.total_s() == pytest.approx(tel.stage_s["a"] + tel.stage_s["b"])

    def test_last_stage_survives_raise(self):
        tel = StageTelemetry()
        with pytest.raises(RuntimeError):
            with tel.stage("boom"):
                raise RuntimeError("x")
        assert tel.last_stage == "boom"
        assert tel.stage_calls["boom"] == 1  # crash time still accounted

    def test_counters(self):
        tel = StageTelemetry()
        tel.count("samples")
        tel.count("samples", 9)
        assert tel.counters == {"samples": 10}

    def test_merge(self):
        a, b = StageTelemetry(), StageTelemetry()
        with a.stage("x"):
            pass
        with b.stage("x"):
            pass
        with b.stage("y"):
            pass
        b.count("c", 3)
        a.merge(b)
        assert a.stage_calls == {"x": 2, "y": 1}
        assert a.counters == {"c": 3}

    def test_picklable(self):
        tel = StageTelemetry()
        with tel.stage("x"):
            tel.count("n", 2)
        clone = pickle.loads(pickle.dumps(tel))
        assert clone.stage_s == tel.stage_s
        assert clone.counters == tel.counters
        assert clone.last_stage == "x"


class TestLightFailure:
    def test_from_exception(self):
        f = LightFailure.from_exception(ValueError("bad shape"), "samples")
        assert f.error_type == "ValueError"
        assert f.stage == "samples"
        assert f.message == "bad shape"
        assert not f.insufficient_data
        assert f.kind == "samples/ValueError"
        assert "samples" in str(f) and "bad shape" in str(f)

    def test_stage_defaults_to_setup(self):
        f = LightFailure.from_exception(RuntimeError("x"), None)
        assert f.stage == "setup"

    def test_dict_roundtrip(self):
        f = LightFailure(error_type="ValueError", stage="red", message="m")
        assert LightFailure.from_dict(f.to_dict()) == f

    def test_insufficient_data_flag(self):
        from repro.core.signal_types import InsufficientDataError
        f = LightFailure.from_exception(InsufficientDataError("sparse"), "cycle")
        assert f.insufficient_data


class TestRunReport:
    def test_record_and_taxonomy(self):
        report = RunReport()
        tel = StageTelemetry()
        with tel.stage("cycle"):
            pass
        report.record_light((0, "NS"), tel)
        report.record_light(
            (1, "EW"), None,
            LightFailure(error_type="ValueError", stage="red", message="m"),
        )
        report.finish_run(0.5)
        assert report.n_lights == 2 and report.n_ok == 1 and report.n_failed == 1
        assert report.runs == 1 and report.wall_s == pytest.approx(0.5)
        assert report.failure_taxonomy() == {"red/ValueError": 1}
        assert "1:EW" in report.failures

    def test_json_roundtrip(self, tmp_path):
        report = RunReport()
        tel = StageTelemetry()
        with tel.stage("cycle"):
            tel.count("samples_primary", 42)
        report.record_light((0, "NS"), tel)
        report.record_light(
            (3, "EW"), None,
            LightFailure(error_type="TypeError", stage="stops", message="oops"),
        )
        report.finish_run(1.25)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.n_lights == report.n_lights
        assert loaded.counters == report.counters
        assert loaded.failures == report.failures
        assert loaded.wall_s == pytest.approx(report.wall_s)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.run_report/v1"

    def test_summary_mentions_stages_and_failures(self):
        report = RunReport()
        tel = StageTelemetry()
        with tel.stage("cycle"):
            pass
        report.record_light((0, "NS"), tel)
        report.record_light(
            (1, "NS"), None,
            LightFailure(error_type="ValueError", stage="red", message="m"),
        )
        text = report.summary()
        assert "cycle" in text and "red/ValueError" in text

    def test_format_light_key(self):
        assert format_light_key((3, "NS")) == "3:NS"
        assert format_light_key("free-form") == "free-form"


class TestReportFromIdentifyMany:
    def test_report_collects_stages_and_counters(self, partitions):
        report = RunReport()
        ests, fails = identify_many(partitions, 5400.0, backend="serial", report=report)
        assert report.n_lights == len(partitions)
        assert report.n_ok == len(ests) and report.n_failed == len(fails)
        for stage in ("samples", "stops", "cycle", "red"):
            assert report.stage_s[stage] > 0.0
        assert report.counters["samples_primary"] > 0
        assert report.counters["cycle_candidates_scanned"] > 0
        assert report.counters["stops_extracted"] >= report.counters["stops_kept"]

    def test_report_aggregates_across_time_spots(self, partitions, city):
        def truth_fn(iid, app, t):
            plan = city.plans[iid][0]
            return plan.ns_schedule() if app == Approach.NS else plan.ew_schedule()

        report = RunReport()
        result = evaluate_at_times(
            partitions, truth_fn, [4500.0, 5400.0], backend="serial", report=report
        )
        assert report.runs == 2
        assert report.n_lights == 2 * len(partitions)
        assert len(result) == 2 * len(partitions)
        assert report.wall_s > 0.0

    def test_poisoned_citywide_run_completes(self, partitions, tmp_path):
        # ~10% of the city deliberately poisoned (1 of 8 lights here).
        keys = sorted(partitions)
        bad = keys[: max(1, round(0.1 * len(keys)))]
        city = dict(partitions)
        for k in bad:
            city[k] = poison_partition(city[k])

        report = RunReport()
        ests, fails = identify_many(city, 5400.0, report=report)

        # The run completed and every poisoned light is typed in the map.
        for k in bad:
            assert k in fails
            assert fails[k].error_type == "ValueError"
            assert fails[k].stage == "samples"
        # The healthy lights got exactly the estimates a clean run gives.
        clean, _ = identify_many(partitions, 5400.0, backend="serial")
        for k in clean:
            if k not in bad:
                assert k in ests
                assert ests[k].cycle_s == pytest.approx(clean[k].cycle_s)

        # The exported JSON carries per-stage wall time + counter totals.
        path = tmp_path / "report.json"
        report.save(path)
        doc = json.loads(path.read_text())
        assert doc["lights"]["failed"] == len(bad)
        assert doc["lights"]["ok"] == len(ests)
        assert doc["stages"] and all(v["wall_s"] >= 0.0 for v in doc["stages"].values())
        assert doc["counters"]["samples_primary"] > 0
        entry = doc["failures"][format_light_key(bad[0])]
        assert entry["error_type"] == "ValueError"
        assert entry["stage"] == "samples"
        assert doc["failure_taxonomy"]["samples/ValueError"] == len(bad)
