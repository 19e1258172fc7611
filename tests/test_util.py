"""Unit tests for repro._util."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro._util import (
    as_rng,
    check_1d,
    check_in_range,
    check_nonnegative,
    check_positive,
    circular_diff,
    seed_sequence_for,
    wrap_mod,
)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert as_rng(42).integers(1 << 30) == as_rng(42).integers(1 << 30)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(5)
        assert isinstance(as_rng(ss), np.random.Generator)


class TestSeedSequenceFor:
    def test_reproducible(self):
        a = as_rng(seed_sequence_for(9, 3)).integers(1 << 30)
        b = as_rng(seed_sequence_for(9, 3)).integers(1 << 30)
        assert a == b

    def test_distinct_keys_differ(self):
        a = as_rng(seed_sequence_for(9, 3)).integers(1 << 30)
        b = as_rng(seed_sequence_for(9, 4)).integers(1 << 30)
        assert a != b


class TestCheckers:
    def test_check_positive_accepts(self):
        assert check_positive("x", 2) == 2.0

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            check_positive("x", bad)

    def test_check_nonnegative_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0.0

    def test_check_nonnegative_rejects(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -0.1)

    def test_check_in_range_inclusive(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0

    def test_check_in_range_strict_rejects_boundary(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_check_1d_coerces(self):
        out = check_1d("x", [1, 2, 3])
        assert out.dtype == float and out.shape == (3,)

    def test_check_1d_rejects_2d(self):
        with pytest.raises(ValueError):
            check_1d("x", [[1, 2], [3, 4]])

    def test_check_1d_min_len(self):
        with pytest.raises(ValueError):
            check_1d("x", [1], min_len=2)


class TestWrapMod:
    def test_basic(self):
        assert wrap_mod(105, 98) == pytest.approx(7)

    def test_negative_values_wrap_positive(self):
        assert wrap_mod(-3, 98) == pytest.approx(95)

    def test_vectorized(self):
        out = wrap_mod(np.array([0.0, 98.0, 99.0]), 98.0)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0])

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            wrap_mod(1.0, 0.0)


class TestCircularDiff:
    def test_wraparound_small(self):
        # 1 s vs 97 s on a 98 s circle is a 2 s difference
        assert circular_diff(1.0, 97.0, 98.0) == pytest.approx(2.0)

    def test_signed(self):
        assert circular_diff(10.0, 15.0, 98.0) == pytest.approx(-5.0)

    @given(
        a=st.floats(-1000, 1000),
        b=st.floats(-1000, 1000),
        period=st.floats(1.0, 500.0),
    )
    def test_bounded_by_half_period(self, a, b, period):
        d = float(circular_diff(a, b, period))
        assert -period / 2 - 1e-6 <= d < period / 2 + 1e-6

    @given(
        a=st.floats(0, 1000),
        b=st.floats(0, 1000),
        k=st.integers(-5, 5),
        period=st.floats(1.0, 500.0),
    )
    # a + k * period rounds onto the half-period boundary: the two sides
    # come out as +20 and -20, the same point on the circle
    @example(a=499.99999999999994, b=40.0, k=1, period=40.0)
    def test_period_invariant(self, a, b, k, period):
        d1 = float(circular_diff(a, b, period))
        d2 = float(circular_diff(a + k * period, b, period))
        assert abs(float(circular_diff(d1, d2, period))) <= 1e-6
