"""The streaming identification subsystem (``repro.stream``).

Covers the mutation layer (``StreamStore.append`` / targeted cache
invalidation in ``PartitionStore.append_partitions``), the session layer
(result caching, ``IncrementalUpdate`` accounting, online plan-change
detection), one-shot parity with ``identify_many``, the per-chunk
telemetry in ``RunReport``, and the replay harness.  The
bit-for-bit replay-parity oracle itself lives in
``tests/test_stream_parity.py``.
"""

import json

import numpy as np
import pytest

from repro.core import PipelineConfig, identify_many
from repro.core.monitor import PlanChange
from repro.matching.partition import LightPartition
from repro.obs import ChunkStats, RunReport
from repro.scenario import synthetic_lights, synthetic_partitions
from repro.stream import (
    StreamSession,
    StreamStore,
    split_by_time,
    split_random,
    subset_partition,
)
from repro.trace.store import PartitionStore


def _halves(partitions):
    """The fixture city split into two time halves."""
    t1 = max(float(p.trace.t.max()) for p in partitions.values())
    return split_by_time(partitions, [0.0, t1 / 2.0, t1 + 1.0])


def _corrupt(part):
    """A structurally broken clone (dist column of the wrong length)."""
    return LightPartition(
        part.intersection_id, part.approach, part.trace,
        part.segment_id, np.empty(3),
    )


class TestChunkHelpers:
    def test_split_by_time_partitions_all_rows(self, partitions):
        first, second = _halves(partitions)
        total = sum(len(p.trace) for p in partitions.values())
        split = sum(len(p.trace) for c in (first, second) for p in c.values())
        assert split == total

    def test_split_by_time_rejects_single_edge(self, partitions):
        with pytest.raises(ValueError, match="two boundaries"):
            split_by_time(partitions, [0.0])

    def test_split_random_partitions_all_rows(self, partitions, rng):
        chunks = split_random(partitions, 5, rng=rng)
        total = sum(len(p.trace) for p in partitions.values())
        split = sum(len(p.trace) for c in chunks for p in c.values())
        assert split == total

    def test_split_random_rejects_zero_chunks(self, partitions, rng):
        with pytest.raises(ValueError, match="n_chunks"):
            split_random(partitions, 0, rng=rng)

    def test_subset_partition_keeps_columns_aligned(self, partitions):
        key = sorted(partitions)[0]
        part = partitions[key]
        rows = np.arange(len(part.trace))[::2]
        piece = subset_partition(part, rows)
        np.testing.assert_array_equal(piece.trace.t, part.trace.t[rows])
        np.testing.assert_array_equal(piece.segment_id, np.asarray(part.segment_id)[rows])
        np.testing.assert_array_equal(
            piece.dist_to_stopline_m, np.asarray(part.dist_to_stopline_m)[rows]
        )


class TestAppendPartitions:
    def test_chunked_build_matches_one_shot_bitwise(self, partitions):
        one_shot = PartitionStore.from_partitions(partitions)
        store = PartitionStore.from_partitions({})
        for chunk in _halves(partitions):
            store.append_partitions(chunk)
        assert sorted(store) == sorted(one_shot)
        for key in one_shot:
            a, b = store.partition(key), one_shot.partition(key)
            np.testing.assert_array_equal(a.trace.t, b.trace.t)
            np.testing.assert_array_equal(a.trace.taxi_id, b.trace.taxi_id)
            np.testing.assert_array_equal(
                a.dist_to_stopline_m, b.dist_to_stopline_m
            )

    def test_append_invalidates_only_touched_lights(self, partitions):
        first, second = _halves(partitions)
        store = PartitionStore.from_partitions(first)
        keys = sorted(store)
        for key in keys:
            store.stops(key)  # populate the per-light caches
        touched_key = keys[0]
        touched = store.append_partitions({touched_key: second[touched_key]})
        assert touched == frozenset({touched_key})
        assert touched_key not in store._stops
        for key in keys[1:]:
            assert key in store._stops

    def test_empty_chunk_is_a_noop(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        key = sorted(store)[0]
        store.stops(key)
        empty = subset_partition(partitions[key], np.empty(0, dtype=int))
        touched = store.append_partitions({key: empty})
        assert touched == frozenset()
        assert key in store._stops, "an empty chunk must not damage caches"

    def test_append_new_light(self, partitions):
        first, second = _halves(partitions)
        new_key = sorted(partitions)[0]
        base = {k: v for k, v in first.items() if k != new_key}
        store = PartitionStore.from_partitions(base)
        touched = store.append_partitions({new_key: first[new_key]})
        assert touched == frozenset({new_key})
        assert new_key in store
        np.testing.assert_array_equal(
            store.partition(new_key).trace.t, first[new_key].trace.t
        )

    def test_irregular_chunk_quarantines_only_its_light(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        keys = sorted(store)
        bad, good = keys[0], keys[1]
        store.append_partitions({bad: _corrupt(partitions[bad])})
        assert not store.is_regular(bad)
        assert store.is_regular(good)
        np.testing.assert_array_equal(
            store.partition(good).trace.t, partitions[good].trace.t
        )


class TestStreamStore:
    def test_dirty_includes_perpendicular_partner(self, partitions):
        first, second = _halves(partitions)
        stream = StreamStore(first)
        (iid, approach) = sorted(first)[0]
        partner = (iid, "EW" if approach == "NS" else "NS")
        ingest = stream.append({(iid, approach): second[(iid, approach)]})
        assert ingest.touched == frozenset({(iid, approach)})
        assert ingest.dirty == frozenset({(iid, approach), partner})

    def test_versions_bump_only_for_dirty(self, partitions):
        first, second = _halves(partitions)
        stream = StreamStore(first)
        key = sorted(first)[0]
        before = {k: stream.version(k) for k in stream.store}
        ingest = stream.append({key: second[key]})
        for k in stream.store:
            expect = before[k] + 1 if k in ingest.dirty else before[k]
            assert stream.version(k) == expect, k

    def test_ingest_accounting(self, partitions):
        stream = StreamStore()
        first, second = _halves(partitions)
        ingest = stream.append(first)
        assert ingest.n_records == sum(len(p.trace) for p in first.values())
        assert ingest.t_max == max(
            float(p.trace.t.max()) for p in first.values()
        )
        empty = stream.append({})
        assert empty.n_records == 0 and empty.t_max is None
        assert empty.touched == frozenset() and empty.dirty == frozenset()


class TestStreamSession:
    def test_one_shot_matches_batched(self, partitions):
        session = StreamSession(monitor=False)
        session.ingest(dict(partitions), refresh=False)
        est_s, fail_s = session.evaluate(5400.0)
        est_b, fail_b = identify_many(partitions, 5400.0, backend="batched")
        assert sorted(est_s) == sorted(est_b)
        assert sorted(fail_s) == sorted(fail_b)
        for key in est_b:
            assert est_s[key].cycle_s == est_b[key].cycle_s

    def test_evaluate_serves_cache_when_clean(self, partitions):
        session = StreamSession(monitor=False)
        session.ingest(dict(partitions), refresh=False)
        session.evaluate(5400.0)
        assert session._stale_keys(5400.0, None) == []
        est1, _ = session.evaluate(5400.0)
        est2, _ = session.evaluate(5400.0)
        key = sorted(est1)[0]
        assert est1[key] is est2[key], "clean lights must be served from cache"

    def test_new_time_spot_marks_everything_stale(self, partitions):
        session = StreamSession(monitor=False)
        session.ingest(dict(partitions), refresh=False)
        session.evaluate(5400.0)
        assert sorted(session._stale_keys(4500.0, None)) == sorted(session.store)

    def test_ingest_refreshes_only_dirty(self, partitions):
        first, second = _halves(partitions)
        session = StreamSession(monitor=False)
        # pin the evaluation time so the second ingest cannot mark every
        # light stale merely by moving "now" forward
        session.ingest(first, at_time=5400.0)
        key = sorted(second)[0]
        update = session.ingest({key: second[key]}, at_time=5400.0)
        partner = (key[0], "EW" if key[1] == "NS" else "NS")
        assert update.touched == frozenset({key})
        assert update.refreshed == frozenset({key, partner})
        # the update exposes the full current view, not just the refresh
        assert set(update.estimates) | set(update.failures) == set(session.store)

    def test_update_at_time_defaults_to_chunk_t_max(self, partitions):
        first, _second = _halves(partitions)
        session = StreamSession(monitor=False)
        update = session.ingest(first)
        assert update.at_time == max(
            float(p.trace.t.max()) for p in first.values()
        )

    def test_identify_many_stream_backend_bitwise(self, partitions):
        """A session fed everything at once is identify_many, bit for bit."""
        ref = identify_many(partitions, 5400.0, backend="batched")
        session = StreamSession(monitor=False)
        session.ingest(dict(partitions), refresh=False)
        out = session.evaluate(5400.0)
        assert sorted(out[0]) == sorted(ref[0])
        assert sorted(out[1]) == sorted(ref[1])
        for key in ref[0]:
            assert out[0][key].cycle_s == ref[0][key].cycle_s
            assert out[0][key].schedule.offset_s == ref[0][key].schedule.offset_s


class TestCoherenceAudit:
    """Regression tests from the whole-program analyzer audit.

    These pin the store's cache coherence at runtime: an ingest drops
    the touched light's cached views and leaves the partner's intact,
    and the session result cache keys on both data version and spot
    time.  (Dropping ``append_partitions``' invalidation fails two
    tests in this class, among 31 in tier-1; DESIGN.md §9.)
    """

    def test_partner_of_is_an_involution(self, partitions):
        from repro.matching.partition import partner_of

        for key in sorted(partitions):
            partner = partner_of(key)
            assert partner[0] == key[0]
            assert partner[1] != key[1]
            assert partner_of(partner) == key

    def test_ingest_keeps_partner_views(self, partitions):
        first, second = _halves(partitions)
        stream = StreamStore(first)
        store = stream.store
        key = sorted(first)[0]
        partner = (key[0], "EW" if key[1] == "NS" else "NS")
        # warm both lights' extraction caches
        store.stops(partner)
        store.stops(key)
        stream.append({key: second[key]})
        # touched light: its views are gone
        assert key not in store._stops
        # partner: dirty (TestStreamStore), but its extractions survive
        assert partner in store._stops

    def test_session_cache_keys_on_data_version(self, partitions):
        first, second = _halves(partitions)
        session = StreamSession(monitor=False)
        session.ingest(first, refresh=False)
        session.evaluate(5400.0)
        key = sorted(second)[0]
        partner = (key[0], "EW" if key[1] == "NS" else "NS")
        session.stream.append({key: second[key]})
        # same at_time, bumped version: exactly the dirty pair is stale
        assert sorted(session._stale_keys(5400.0, None)) == sorted(
            {key, partner}
        )

    def test_clean_lights_keep_identical_results_across_refresh(
        self, partitions
    ):
        first, second = _halves(partitions)
        session = StreamSession(monitor=False)
        session.ingest(first, refresh=False)
        est1, _ = session.evaluate(5400.0)
        key = sorted(second)[0]
        partner = (key[0], "EW" if key[1] == "NS" else "NS")
        session.stream.append({key: second[key]})
        est2, _ = session.evaluate(5400.0)
        for k in est1:
            if k in (key, partner):
                continue
            assert est1[k] is est2[k], (
                "a light whose data and spot time are unchanged must be "
                "served the cached estimate object"
            )

    def test_version_bump_during_refresh_keeps_entry_stale(
        self, partitions, monkeypatch
    ):
        """The snapshot-isolation invariant of the session cache.

        An append landing while a refresh's kernels run (the serving
        layer's writer racing an executor-offloaded refresh) must leave
        the refreshed entries *stale*: they were computed from the old
        rows, so stamping them with the bumped version would let the
        next evaluate serve mixed-version results from cache.
        """
        from repro.core import batch as batch_mod

        first, second = _halves(partitions)
        session = StreamSession(monitor=False)
        session.ingest(first, refresh=False)
        real = batch_mod.identify_batch
        raced = {"done": False}

        def racing(store, at_time, **kwargs):
            # Identify on the rows as they are now, then land a
            # concurrent append before the session stamps its entries.
            result = real(store, at_time, **kwargs)
            if not raced["done"]:
                raced["done"] = True
                session.stream.append(second)
            return result

        monkeypatch.setattr(batch_mod, "identify_batch", racing)
        session.evaluate(5400.0)
        # every entry was computed from pre-append rows and must carry
        # the pre-append version: all stale, none fresh-but-torn
        assert sorted(session._stale_keys(5400.0, None)) == sorted(partitions)
        # the next evaluate re-identifies and reconverges bit-for-bit
        # with a one-shot batched run over the full data
        est, fail = session.evaluate(5400.0)
        ref_est, ref_fail, _ = real(
            PartitionStore.from_partitions(partitions), 5400.0
        )
        assert sorted(est) == sorted(ref_est)
        assert sorted(fail) == sorted(ref_fail)
        for k in ref_est:
            a, b = est[k], ref_est[k]
            assert (a.cycle_s, a.red_s, a.green_s, a.schedule.offset_s) == (
                b.cycle_s, b.red_s, b.green_s, b.schedule.offset_s
            )


class TestOnlineMonitor:
    @pytest.mark.slow
    def test_plan_change_detected_online(self):
        lights = synthetic_lights(2, seed=4, switch_at_s=7200.0, switch_factor=1.3)
        parts = synthetic_partitions(lights, 0.0, 14400.0, seed=4)
        edges = list(np.arange(0.0, 14401.0, 600.0))
        session = StreamSession(config=PipelineConfig(window_s=1800.0))
        detected = {}
        for chunk in split_by_time(parts, edges):
            update = session.ingest(chunk)
            for key, changes in update.plan_changes.items():
                detected.setdefault(key, []).extend(changes)
        assert sorted(detected) == sorted(parts), (
            "the plan switch must be detected online for every light"
        )
        for key, changes in detected.items():
            truth = next(lt for lt in lights if lt.key == key)
            # the first post-switch window blends both plans, so allow
            # ~10% on the new cycle; timing must land near the switch
            hits = [
                ch for ch in changes
                if abs(ch.new_cycle_s - truth.cycle2_s) < 0.1 * truth.cycle2_s
                and 6600.0 <= ch.at_time <= 9600.0
            ]
            assert hits, f"{key}: no detected change matches the true new plan"

    @staticmethod
    def _reported(cycles):
        """Changes reported after each sample of a 5-minute series."""
        session = StreamSession()
        key = (0, "NS")
        out = []
        for i, cycle_s in enumerate(cycles):
            session._history.setdefault(key, []).append((300.0 * i, float(cycle_s), 1.0))
            out.append(session._new_plan_changes(key))
        return out

    def test_change_that_vanishes_and_returns_is_reported_once(self):
        # sample 8 (150 s) moves the repair so the change at 900 s drops
        # out of the detection; sample 9 brings it back
        reported = self._reported([90, 45, 90, 90, 60, 60, 60, 150, 60])
        assert [ch.at_time for fresh in reported for ch in fresh] == [900.0]
        assert reported[6] == [PlanChange(at_time=900.0, old_cycle_s=90.0, new_cycle_s=60.0)]

    def test_moved_onset_is_reported(self):
        # the change first detected at 300 s is, one sample later,
        # detected at 600 s; the new onset must reach the consumer
        reported = self._reported([90, 45, 100, 45, 100, 100])
        assert [ch.at_time for fresh in reported for ch in fresh] == [300.0, 600.0]

    def test_monitor_series_accumulates(self, partitions):
        session = StreamSession()
        for chunk in _halves(partitions):
            session.ingest(chunk)
        key = sorted(session.store)[0]
        series = session.monitor_series(key)
        assert len(series) == 2
        assert np.all(np.diff(series.t) > 0)


class TestChunkTelemetry:
    def test_report_records_chunk_stats(self, partitions):
        report = RunReport()
        session = StreamSession(monitor=False, report=report)
        chunks = _halves(partitions)
        for chunk in chunks:
            session.ingest(chunk)
        assert len(report.chunks) == len(chunks)
        assert [c.chunk_index for c in report.chunks] == [0, 1]
        assert sum(c.n_records for c in report.chunks) == sum(
            len(p.trace) for p in partitions.values()
        )
        assert all(c.wall_s >= 0.0 for c in report.chunks)

    def test_report_roundtrip_with_chunks(self):
        report = RunReport()
        report.record_chunk(ChunkStats(0, 100, 4, 6, 6, 0.25))
        d = report.to_dict()
        clone = RunReport.from_dict(json.loads(json.dumps(d)))
        assert clone.chunks == report.chunks

    def test_report_without_chunks_keeps_v1_shape(self):
        assert "chunks" not in RunReport().to_dict()


class TestEvaluateReplay:
    def test_replay_scores_every_light_per_chunk(self, city, partitions):
        from repro.eval import evaluate_replay

        def truth(iid, approach, at_time):
            return city.truth_at(iid, approach, at_time)

        report = RunReport()
        edges = [0.0, 2700.0, 5400.0]
        result = evaluate_replay(
            partitions, truth, edges, report=report
        )
        assert len(result) == (len(edges) - 1) * len(partitions)
        # early windows may be sparse; the final, full-window estimates
        # must be tight for every light
        final = [
            s for s in result.samples if s.at_time == edges[-1] and s.errors
        ]
        assert len(final) == len(partitions)
        assert max(abs(s.errors.cycle_s) for s in final) < 5.0
        assert len(report.chunks) == len(edges) - 1
