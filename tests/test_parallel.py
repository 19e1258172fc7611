"""Unit tests for the process-pool fan-out utilities."""

import os
import pickle

import numpy as np
import pytest

from repro.parallel import pool
from repro.parallel.pool import (
    WorkerError,
    default_workers,
    get_common,
    pmap,
    pmap_seeded,
)

# Process pools dominate this module's runtime; the fast CI tier skips it.
pytestmark = pytest.mark.slow


def square(x):
    return x * x


def draw(item, rng):
    return item, int(rng.integers(1_000_000))


def fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x * 10


def fail_on_odd_seeded(x, rng):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x * 10, int(rng.integers(1_000_000))


def report_common(x):
    return get_common()


def normalize(results):
    """Comparable view: WorkerErrors reduced to their stable fields."""
    return [
        (r.index, r.error_type, r.message) if isinstance(r, WorkerError) else r
        for r in results
    ]


class TestDefaultWorkers:
    def test_explicit(self):
        assert default_workers(3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_workers(0)

    def test_capped(self):
        assert 1 <= default_workers() <= 8

    def test_respects_cpu_affinity(self, monkeypatch):
        # cgroup/affinity-limited runners expose fewer CPUs than
        # os.cpu_count(); the default must not oversubscribe them.
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert default_workers() == 2


class TestPmap:
    def test_order_preserved_serial(self):
        assert pmap(square, range(10), serial=True) == [x * x for x in range(10)]

    def test_order_preserved_parallel(self):
        out = pmap(square, range(50), max_workers=4)
        assert out == [x * x for x in range(50)]

    def test_empty(self):
        assert pmap(square, []) == []

    def test_single_item_stays_inline(self):
        assert pmap(square, [7]) == [49]

    def test_parallel_equals_serial(self):
        items = list(range(37))
        assert pmap(square, items, max_workers=3) == pmap(square, items, serial=True)


class TestPmapOnError:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            pmap(square, [1], on_error="skip")

    def test_raise_is_the_default(self):
        with pytest.raises(ValueError):
            pmap(fail_on_odd, [1, 2], serial=True)

    def test_return_mode_contains_failures(self):
        out = pmap(fail_on_odd, range(6), serial=True, on_error="return")
        assert out[0] == 0 and out[2] == 20 and out[4] == 40
        for i in (1, 3, 5):
            assert isinstance(out[i], WorkerError)
            assert out[i].index == i
            assert out[i].error_type == "ValueError"
            assert f"odd {i}" in out[i].message
            assert "ValueError" in out[i].traceback

    def test_return_mode_keeps_the_exception_detached(self):
        (err,) = pmap(fail_on_odd, [1], serial=True, on_error="return")
        assert isinstance(err.exception, ValueError)
        assert str(err.exception) == err.message
        # no live traceback: it would pin the caller's frames, and the
        # record itself, in a reference cycle
        assert err.exception.__traceback__ is None
        clone = pickle.loads(pickle.dumps(err))
        assert clone == err and clone.exception is None

    def test_return_mode_parallel_survives_poisoned_chunk(self):
        # items sharing a chunk with a poisoned one still complete
        out = pmap(fail_on_odd, range(40), max_workers=3, on_error="return")
        assert len(out) == 40
        assert sum(isinstance(r, WorkerError) for r in out) == 20

    def test_serial_parallel_parity(self):
        items = list(range(23))
        a = pmap(fail_on_odd, items, serial=True, on_error="return")
        b = pmap(fail_on_odd, items, max_workers=3, on_error="return")
        assert normalize(a) == normalize(b)

    def test_seeded_parity_and_streams(self):
        items = list(range(17))
        a = pmap_seeded(fail_on_odd_seeded, items, base_seed=3, serial=True,
                        on_error="return")
        b = pmap_seeded(fail_on_odd_seeded, items, base_seed=3, max_workers=4,
                        on_error="return")
        assert normalize(a) == normalize(b)
        # even items carry real seeded draws, identical across modes
        assert a[2] == b[2] and isinstance(a[2], tuple)


class TestCommonSlotAcrossProcesses:
    """Pool-path counterparts of ``tests/test_pool_guards.py``."""

    def test_pool_common_roundtrip(self):
        out = pmap(report_common, range(6), max_workers=2, common={"k": 1})
        assert out == [{"k": 1}] * 6
        assert get_common() is None

    def test_workers_see_none_without_common(self):
        # With a fork start method, workers inherit the parent's globals;
        # the initializer must reset the slot even when no common rides
        # along, or a stale store from an earlier run stays visible.
        pool._set_common("stale-from-parent")
        try:
            out = pmap(report_common, range(8), max_workers=2)
        finally:
            pool._set_common(None)
        assert out == [None] * 8


class TestPmapSeeded:
    def test_deterministic_across_worker_counts(self):
        items = list(range(20))
        a = pmap_seeded(draw, items, base_seed=5, serial=True)
        b = pmap_seeded(draw, items, base_seed=5, max_workers=4)
        c = pmap_seeded(draw, items, base_seed=5, max_workers=2)
        assert a == b == c

    def test_different_base_seed_differs(self):
        items = list(range(10))
        a = pmap_seeded(draw, items, base_seed=1, serial=True)
        b = pmap_seeded(draw, items, base_seed=2, serial=True)
        assert a != b

    def test_items_get_independent_streams(self):
        out = pmap_seeded(draw, [0] * 20, base_seed=9, serial=True)
        values = [v for _, v in out]
        assert len(set(values)) > 1

    def test_empty(self):
        assert pmap_seeded(draw, [], base_seed=0) == []
