"""PartitionStore unit tests: the quarantine path, per-light caches,
the float64 ingest boundary and appends.

The parity suite (``test_batch_parity``) exercises the store through
the identification backends; these tests pin the store's own contract —
that probing never raises, that quarantined objects round-trip
untouched, that the per-light derived products (stop events, mean
intervals) are computed once between appends while partition views are
never kept, that
every float the kernels read is float64 however the records arrived,
and that appends, which re-derive only what a chunk changed, leave the
store a one-shot build would.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.partition import LightPartition
from repro.trace.records import TraceArrays
from repro.trace.store import PartitionStore, _is_regular, _probe_regular

from tests.test_faults import synth_partition


class _Explosive:
    """A partition-like object whose every attribute access raises.

    Probing arbitrary objects must never sink store construction; this
    is the worst case the ``run_guarded`` seam has to absorb.
    """

    key = (999, "NS")

    @property
    def trace(self):
        raise RuntimeError("boom")


@pytest.fixture
def small_city():
    a = synth_partition(seed=1, iid=10)
    b = synth_partition(seed=2, iid=11)
    return {a.key: a, b.key: b}


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_probe_accepts_healthy_partition(self, small_city):
        part = next(iter(small_city.values()))
        assert _probe_regular(part) is True

    def test_probe_rejects_inconsistent_columns(self, small_city):
        from repro.matching.partition import LightPartition

        p = next(iter(small_city.values()))
        bad = LightPartition(
            p.intersection_id, p.approach, p.trace, p.segment_id, np.empty(3)
        )
        assert _probe_regular(bad) is False

    def test_is_regular_contains_probe_crash(self):
        # _probe_regular raises on this object; _is_regular must not.
        assert _is_regular(_Explosive()) is False

    def test_exploding_object_is_quarantined_not_fatal(self, small_city):
        boom = _Explosive()
        city = dict(small_city)
        city[boom.key] = boom
        store = PartitionStore.from_partitions(city)
        assert not store.is_regular(boom.key)
        assert boom.key in store
        # comes back by identity: the store never re-packs quarantined objects
        assert store.partition(boom.key) is boom
        assert sorted(store) == sorted(city)

    def test_quarantined_rows_excluded_from_columns(self, small_city):
        boom = _Explosive()
        city = dict(small_city)
        city[boom.key] = boom
        store = PartitionStore.from_partitions(city)
        assert store.n_records == sum(len(p.trace) for p in small_city.values())

    def test_quarantined_objects_survive_pickling(self, small_city):
        from repro.matching.partition import LightPartition

        p = next(iter(small_city.values()))
        bad = LightPartition(
            p.intersection_id, p.approach, p.trace, p.segment_id, np.empty(3)
        )
        city = dict(small_city)
        bad_key = (998, "EW")
        city[bad_key] = bad
        store = PartitionStore.from_partitions(city)
        clone = pickle.loads(pickle.dumps(store))
        assert not clone.is_regular(bad_key)
        np.testing.assert_array_equal(
            clone.partition(bad_key).dist_to_stopline_m,
            bad.dist_to_stopline_m,
        )

    def test_get_returns_default_for_missing_key(self, small_city):
        store = PartitionStore.from_partitions(small_city)
        assert store.get((12345, "NS")) is None
        sentinel = object()
        assert store.get((12345, "NS"), sentinel) is sentinel


# ----------------------------------------------------------------------
# Per-light cache reuse
# ----------------------------------------------------------------------
class TestCacheReuse:
    def test_stops_extracted_once_per_light(self, small_city, monkeypatch):
        import repro.core.stops as stops_mod

        calls = []
        real = stops_mod.extract_stops

        def counting(partition, *args, **kwargs):
            calls.append(partition)
            return real(partition, *args, **kwargs)

        monkeypatch.setattr(stops_mod, "extract_stops", counting)
        store = PartitionStore.from_partitions(small_city)
        key = sorted(store)[0]
        first = store.stops(key)
        second = store.stops(key)
        assert first is second
        assert len(calls) == 1

    def test_mean_interval_measured_once_per_light(self, small_city, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.measured_mean_interval

        def counting(partition, default_s):
            calls.append(partition)
            return real(partition, default_s)

        monkeypatch.setattr(pipeline_mod, "measured_mean_interval", counting)
        store = PartitionStore.from_partitions(small_city)
        key = sorted(store)[0]
        first = store.mean_interval(key)
        second = store.mean_interval(key)
        assert first == second
        assert len(calls) == 1

    def test_caches_are_per_light_not_global(self, small_city):
        store = PartitionStore.from_partitions(small_city)
        k0, k1 = sorted(store)[:2]
        assert store.stops(k0) is not store.stops(k1)
        assert store.partition(k0) is not store.partition(k1)

    def test_untouched_caches_release_replaced_columns(self, small_city):
        # A cached partition view of an untouched light would keep the
        # column generation it was sliced from alive after an append.
        store = PartitionStore.from_partitions(small_city)
        k0, k1 = sorted(store)[:2]
        store.stops(k0)
        store.mean_interval(k0)
        old_t = weakref.ref(store.columns["t"])
        store.append_partitions({k1: small_city[k1].time_window(0.0, 600.0)})
        gc.collect()
        assert old_t() is None

    def test_cached_views_match_originals(self, small_city):
        store = PartitionStore.from_partitions(small_city)
        for key, p in small_city.items():
            q = store.partition(key)
            np.testing.assert_array_equal(q.trace.t, p.trace.t)
            np.testing.assert_array_equal(q.trace.speed_kmh, p.trace.speed_kmh)
            np.testing.assert_array_equal(q.segment_id, p.segment_id)


# ----------------------------------------------------------------------
# The float64 ingest boundary
# ----------------------------------------------------------------------
#: Float columns of a trace, and of the store (which adds the distance
#: to the stop line).  The §V–§VII kernels (DFT, epoch folding,
#: superposition, change point) get float64 input only because these
#: are coerced on the way in.
TRACE_FLOATS = ("t", "lon", "lat", "speed_kmh", "heading_deg")
STORE_FLOATS = TRACE_FLOATS + ("dist_to_stopline_m",)


def _float32_partition(seed, iid, t0=0.0, n=400):
    """A partition whose every float column arrives as float32.

    Half the reports read zero speed at a fixed position, so stop
    extraction has events to return.
    """
    rng = np.random.default_rng(seed)
    f32 = np.float32
    trace = TraceArrays(
        rng.integers(0, 20, n),
        np.sort(rng.uniform(t0, t0 + 3600.0, n)).astype(f32),
        np.full(n, 114.05, dtype=f32),
        np.full(n, 22.54, dtype=f32),
        np.where(rng.random(n) < 0.5, 0.0, 30.0).astype(f32),
        heading_deg=rng.uniform(0.0, 360.0, n).astype(f32),
    )
    return LightPartition(
        iid, "NS", trace, np.zeros(n, dtype=np.int64), np.full(n, 40.0, dtype=f32)
    )


@pytest.fixture
def float32_city():
    parts = [_float32_partition(seed, iid) for seed, iid in ((3, 20), (4, 21))]
    return {p.key: p for p in parts}


def _assert_float64(arrays, names):
    wrong = {
        name: str(arrays[name].dtype)
        for name in names
        if arrays[name].dtype != np.float64
    }
    assert not wrong, f"columns not float64: {wrong}"


def _trace_columns(trace):
    return {name: getattr(trace, name) for name in TRACE_FLOATS}


class TestFloat64Boundary:
    def test_trace_arrays_coerce_float32_input(self, float32_city):
        for part in float32_city.values():
            _assert_float64(_trace_columns(part.trace), TRACE_FLOATS)

    def test_store_columns_after_build(self, float32_city):
        store = PartitionStore.from_partitions(float32_city)
        _assert_float64(store.columns, STORE_FLOATS)
        for key in store:
            _assert_float64(_trace_columns(store.partition(key).trace), TRACE_FLOATS)

    def test_store_columns_after_append(self, float32_city):
        store = PartitionStore.from_partitions(float32_city)
        key = sorted(store)[0]
        store.append_partitions({key: _float32_partition(5, key[0], t0=3600.0)})
        _assert_float64(store.columns, STORE_FLOATS)
        _assert_float64(_trace_columns(store.partition(key).trace), TRACE_FLOATS)

    def test_store_columns_after_spilled_reload(self, float32_city):
        store = PartitionStore.from_partitions(float32_city)
        with store._spilled() as mapped:
            _assert_float64(mapped.columns, STORE_FLOATS)
            clone = pickle.loads(pickle.dumps(mapped))
            _assert_float64(clone.columns, STORE_FLOATS)

    def test_window_samples_are_float64(self, float32_city):
        store = PartitionStore.from_partitions(float32_city)
        for key in store:
            t, v = store.window_samples(key, 600.0, 3000.0, 100.0)
            assert t.size and v.size
            assert t.dtype == np.float64
            assert v.dtype == np.float64

    def test_stop_times_are_float64(self, float32_city):
        store = PartitionStore.from_partitions(float32_city)
        for key in store:
            stops = store.stops(key)
            assert len(stops)
            assert stops.t_start.dtype == np.float64
            assert stops.t_end.dtype == np.float64


# ----------------------------------------------------------------------
# Appends re-derive only what a chunk changed
# ----------------------------------------------------------------------
#: Lights of the drawn cities: a perpendicular pair and a lone light.
ORACLE_KEYS = ((1, "EW"), (1, "NS"), (2, "NS"))

#: One report of a taxi: time, position offset, speed, passenger flag
#: and distance to the stop line.  A coarse clock (so timestamps
#: repeat), positions 0 m / 1 m / 100 m apart and speeds and distances
#: mostly on the stationary side make stop runs common, and let one
#: taxi's run cross chunk boundaries; the second time block brings a
#: taxi back two hours later.
_REPORT = st.tuples(
    st.integers(0, 12).map(lambda j: 10.0 * j)
    | st.integers(0, 12).map(lambda j: 7200.0 + 10.0 * j),
    st.sampled_from([0.0, 0.0, 1e-5, 1e-3]),
    st.sampled_from([0.0, 0.0, 5.0, 40.0]),
    st.booleans(),
    st.sampled_from([30.0, 30.0, 120.0, 300.0]),
)


def _reports(max_taxis):
    """One light's rows, from 1 to *max_taxis* of four taxis."""
    taxis = st.lists(st.integers(0, 3), min_size=1, max_size=max_taxis, unique=True)
    return taxis.flatmap(
        lambda ids: st.lists(
            st.tuples(st.sampled_from(ids), _REPORT).map(lambda r: (r[0], *r[1])),
            max_size=12,
        )
    )


_READS = st.sets(st.sampled_from(ORACLE_KEYS))
#: One step: an append (or an irregular chunk demoting a light), then
#: the lights whose stops are read; a light left unread across steps
#: takes several appends before its next read.
_STEP = st.tuples(
    st.just("append"),
    st.dictionaries(st.sampled_from(ORACLE_KEYS), _reports(2), min_size=1),
    _READS,
) | st.tuples(st.just("irregular"), st.sampled_from(ORACLE_KEYS), _READS)


def _oracle_partition(key, reports):
    """A partition holding *reports* in the given row order."""
    taxi, t, dlon, speed, passenger, dist = (
        [r[i] for r in reports] for i in range(6)
    )
    trace = TraceArrays(
        taxi, t, 114.0 + np.asarray(dlon, dtype=float), np.full(len(reports), 22.5),
        speed, passenger=passenger,
    )
    return LightPartition(
        key[0], key[1], trace,
        np.asarray(taxi, dtype=np.int64) % 3, np.asarray(dist, dtype=float),
    )


def _canonical(reports):
    """Rows in the store's merge order: by time, then taxi, stable."""
    order = np.lexsort(([r[0] for r in reports], [r[1] for r in reports]))
    return [reports[i] for i in order]


def _assert_same_stops(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert a.tobytes() == b.tobytes(), f.name


class TestAppendOracle:
    """Any sequence of appends leaves the store a one-shot build would.

    The store re-extracts a touched light's stop events only for the
    chunk's taxis, copies untouched lights' rows in runs and carries
    their sortedness flags.  After every drawn sequence of appends and
    reads — shuffled rows, repeated timestamps, empty chunks, a light
    demoted by an irregular chunk, several appends between reads —
    ``stops`` equals a full ``extract_stops`` of the light's partition,
    field for field, and the columns, offsets and sortedness flags equal
    a ``from_partitions`` build of the merged rows.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        initial=st.dictionaries(st.sampled_from(ORACLE_KEYS), _reports(4)),
        reads=_READS,
        steps=st.lists(_STEP, max_size=6),
    )
    def test_appends_match_one_shot_build(self, initial, reads, steps):
        from repro.core.stops import extract_stops

        store = PartitionStore.from_partitions(
            {key: _oracle_partition(key, rows) for key, rows in initial.items()}
        )
        expected = {key: list(rows) for key, rows in initial.items()}
        demoted = set()

        def check_stops(keys):
            for key in sorted(keys):
                if key in store and key not in demoted:
                    want = extract_stops(store.partition(key))
                    _assert_same_stops(store.stops(key), want)

        check_stops(reads)
        for op, arg, reads in steps:
            if op == "irregular":
                part = _oracle_partition(arg, [(0, 0.0, 0.0, 0.0, False, 30.0)])
                store.append_partitions(
                    {arg: LightPartition(*arg, part.trace, part.segment_id, np.empty(3))}
                )
                demoted.add(arg)
                expected.pop(arg, None)
                assert arg not in store._stale_stops
            else:
                store.append_partitions(
                    {key: _oracle_partition(key, rows) for key, rows in arg.items()}
                )
                for key, rows in arg.items():
                    if key not in demoted and rows:
                        expected[key] = _canonical(expected.get(key, []) + rows)
            check_stops(reads)
        check_stops(ORACLE_KEYS)

        one_shot = PartitionStore.from_partitions(
            {key: _oracle_partition(key, rows) for key, rows in expected.items()}
        )
        assert store._regular_keys == one_shot._regular_keys
        assert sorted(store) == sorted(set(expected) | demoted)
        assert store._offsets.tobytes() == one_shot._offsets.tobytes()
        assert store._time_sorted.tolist() == one_shot._time_sorted.tolist()
        for name, col in one_shot.columns.items():
            assert store.columns[name].dtype == col.dtype, name
            assert store.columns[name].tobytes() == col.tobytes(), name

    def test_taxis_of_every_append_since_the_read_are_rederived(self):
        from repro.core.stops import extract_stops

        key = (1, "NS")

        def still(taxi, t):
            return (taxi, t, 0.0, 0.0, False, 30.0)

        store = PartitionStore.from_partitions(
            {key: _oracle_partition(key, [still(0, 0.0), still(1, 0.0)])}
        )
        assert len(store.stops(key)) == 0  # one report per taxi: no stop yet
        # two appends before the next read, each completing another taxi's stop
        store.append_partitions({key: _oracle_partition(key, [still(0, 10.0)])})
        store.append_partitions({key: _oracle_partition(key, [still(1, 20.0)])})
        events = store.stops(key)
        _assert_same_stops(events, extract_stops(store.partition(key)))
        assert events.taxi_id.tolist() == [0, 1]
