"""Unit tests for the process-pool fan-out utilities."""

import pytest

from repro.parallel import pool
from repro.parallel.pool import get_common, pmap, pmap_seeded

# Process pools dominate this module's runtime; the fast CI tier skips it.
pytestmark = pytest.mark.slow


def square(x):
    return x * x


def draw(item, rng):
    return item, int(rng.integers(1_000_000))


def report_common(x):
    return get_common()


class TestPmap:
    def test_order_preserved_serial(self):
        assert pmap(square, range(10), max_workers=1) == [x * x for x in range(10)]

    def test_order_preserved_parallel(self):
        out = pmap(square, range(50), max_workers=4)
        assert out == [x * x for x in range(50)]

    def test_empty(self):
        assert pmap(square, []) == []

    def test_single_item_stays_inline(self):
        assert pmap(square, [7]) == [49]

    def test_parallel_equals_serial(self):
        items = list(range(37))
        assert pmap(square, items, max_workers=3) == pmap(square, items, max_workers=1)


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
        a = pmap_seeded(draw, items, base_seed=5, max_workers=1)
        b = pmap_seeded(draw, items, base_seed=5, max_workers=4)
        c = pmap_seeded(draw, items, base_seed=5, max_workers=2)
        assert a == b == c

    def test_different_base_seed_differs(self):
        items = list(range(10))
        a = pmap_seeded(draw, items, base_seed=1, max_workers=1)
        b = pmap_seeded(draw, items, base_seed=2, max_workers=1)
        assert a != b

    def test_items_get_independent_streams(self):
        out = pmap_seeded(draw, [0] * 20, base_seed=9, max_workers=1)
        values = [v for _, v in out]
        assert len(set(values)) > 1

    def test_empty(self):
        assert pmap_seeded(draw, [], base_seed=0) == []
