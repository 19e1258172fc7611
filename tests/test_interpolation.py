"""Unit + property tests for §V.A regularization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interpolation import bucket_mean, regularize
from repro.core.signal_types import InsufficientDataError


class TestBucketMean:
    def test_mean_merge_same_second(self):
        t = np.array([10.2, 10.7, 20.1])
        v = np.array([4.0, 8.0, 5.0])
        bt, bv = bucket_mean(t, v, 0.0, 30.0)
        np.testing.assert_allclose(bt, [10.0, 20.0])
        np.testing.assert_allclose(bv, [6.0, 5.0])

    def test_window_filtering(self):
        t = np.array([-5.0, 10.0, 40.0])
        v = np.ones(3)
        bt, _ = bucket_mean(t, v, 0.0, 30.0)
        np.testing.assert_allclose(bt, [10.0])

    def test_empty(self):
        bt, bv = bucket_mean(np.array([]), np.array([]), 0.0, 10.0)
        assert bt.size == 0 and bv.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bucket_mean(np.array([1.0]), np.array([1.0, 2.0]), 0, 10)
        with pytest.raises(ValueError):
            bucket_mean(np.array([1.0]), np.array([1.0]), 10, 0)

    @given(
        values=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=30)
    def test_property_mean_bounded(self, values):
        t = np.arange(len(values), dtype=float) * 0.25  # collisions guaranteed
        v = np.array(values)
        _, bv = bucket_mean(t, v, 0.0, 100.0)
        assert bv.min() >= v.min() - 1e-9
        assert bv.max() <= v.max() + 1e-9


class TestRegularize:
    def test_grid_shape(self):
        t = np.arange(0, 100, 7.0)
        v = np.sin(t)
        grid, out = regularize(t, v, 0.0, 100.0)
        assert grid.shape == out.shape == (100,)
        np.testing.assert_allclose(np.diff(grid), 1.0)

    @pytest.mark.parametrize("kind", ["spline", "linear", "previous"])
    def test_exact_at_sample_points(self, kind):
        t = np.arange(0, 100, 10.0)
        v = np.cos(t / 9.0) * 10
        grid, out = regularize(t, v, 0.0, 100.0, kind=kind)
        idx = t.astype(int)
        np.testing.assert_allclose(out[idx], v, atol=1e-8)

    def test_spline_recovers_smooth_signal(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 200, 60))
        true = lambda x: 5 + 3 * np.sin(2 * np.pi * x / 50.0)
        grid, out = regularize(t, true(t), 0.0, 200.0, kind="spline")
        inside = (grid > t.min()) & (grid < t.max())
        err = np.abs(out[inside] - true(grid[inside]))
        assert np.median(err) < 0.5

    def test_edges_held_constant(self):
        t = np.array([50.0, 60.0, 70.0, 80.0])
        v = np.array([1.0, 2.0, 3.0, 4.0])
        grid, out = regularize(t, v, 0.0, 100.0)
        np.testing.assert_allclose(out[:50], 1.0)
        np.testing.assert_allclose(out[81:], 4.0)

    def test_insufficient_data_raises(self):
        with pytest.raises(InsufficientDataError):
            regularize(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0, 100.0)

    def test_min_samples_counts_buckets_not_rows(self):
        # 10 rows but all in one second: still insufficient
        t = np.full(10, 5.3)
        v = np.arange(10.0)
        with pytest.raises(InsufficientDataError):
            regularize(t, v, 0.0, 100.0, min_samples=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            regularize(np.arange(10.0), np.arange(10.0), 0, 10, kind="cubic")

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20)
    def test_property_no_nans(self, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0, 300, 12))
        v = rng.uniform(-10, 60, 12)
        _, out = regularize(t, v, 0.0, 300.0)
        assert np.isfinite(out).all()


# -- scipy oracle ------------------------------------------------------------
#
# ``regularize`` reproduces scipy's interpolators in numpy.  These cases
# pin every kind to scipy byte for byte; they skip where scipy is not
# installed (it is a test-only dependency).

#: Epoch-scale window start: the grids of a real feed.
_EPOCH = 1.7e9 + 0.375


def _scipy_grid(t, v, t0, t1, dt, kind):
    """``regularize`` as scipy computes it: the interpolator plus edge holds."""
    interpolate = pytest.importorskip("scipy.interpolate")
    bt, bv = bucket_mean(t, v, t0, t1, dt)
    grid = t0 + np.arange(int(np.ceil((t1 - t0) / dt))) * dt
    if kind == "spline":
        out = interpolate.CubicSpline(bt, bv, extrapolate=False)(grid)
    else:
        out = interpolate.interp1d(
            bt, bv, kind=kind, bounds_error=False, fill_value=np.nan
        )(grid)
    out = np.where(grid < bt[0], bv[0], out)
    out = np.where(grid > bt[-1], bv[-1], out)
    return grid, out


@st.composite
def _windows(draw, nan=False):
    """A window of 4-500 occupied buckets with gaps of 1-300 buckets.

    ``ends`` puts short-short-long gaps at both ends, the pattern that
    makes ``dgtsv`` interchange rows (on its last row too when the final
    gap is long); ``bursty`` mixes single-bucket gaps with long ones.
    """
    n = draw(st.integers(4, 500))
    dt = draw(st.sampled_from([0.5, 1.0, 2.0]))
    t0 = draw(st.sampled_from([0.0, _EPOCH]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = draw(st.sampled_from(["uniform", "bursty", "ends"]))
    if pattern == "uniform":
        gaps = rng.integers(1, 301, n - 1)
    elif pattern == "bursty":
        gaps = rng.choice([1, 1, 2, 3, 300], n - 1)
    else:
        n = max(n, 8)
        gaps = rng.integers(1, 6, n - 1)
        long_gap = draw(st.integers(20, 300))
        gaps[:3] = [1, 1, long_gap]
        gaps[-4:] = [long_gap, 1, 1, draw(st.integers(1, 300))]
    lead = draw(st.integers(0, 40))
    buckets = lead + np.concatenate([[0], np.cumsum(gaps)])
    t1 = t0 + (buckets[-1] + draw(st.integers(1, 40))) * dt
    # one or two reports per bucket, so bucket means are exercised too
    per = rng.integers(1, 3, n)
    k = np.repeat(buckets, per)
    t = t0 + (k + rng.uniform(0.0, 0.9, k.size)) * dt
    speeds = draw(st.sampled_from(["random", "constant", "zero", "large"]))
    if speeds == "random":
        v = rng.uniform(-5.0, 90.0, k.size)
    elif speeds == "constant":
        v = np.full(k.size, draw(st.floats(-50.0, 120.0)))
    elif speeds == "zero":
        v = np.zeros(k.size)
    else:
        v = rng.uniform(-1.0, 1.0, k.size) * 10.0 ** draw(st.integers(3, 100))
    if nan:
        # a NaN bucket anywhere, including the first and the last
        at = draw(st.sampled_from(["first", "last", "inner"]))
        j = {"first": 0, "last": k.size - 1}.get(at, int(rng.integers(0, k.size)))
        v[j] = np.nan
    return t, v, t0, t1, dt


_ORACLE = settings(max_examples=150, deadline=None)


def _assert_same_bytes(kind, window):
    t, v, t0, t1, dt = window
    grid, out = regularize(t, v, t0, t1, dt=dt, kind=kind)
    ref_grid, ref = _scipy_grid(t, v, t0, t1, dt, kind)
    assert out.dtype == np.float64
    assert grid.tobytes() == ref_grid.tobytes()
    assert out.tobytes() == ref.tobytes(), (
        f"{kind}: {np.flatnonzero(out.view(np.int64) != ref.view(np.int64)).size} "
        f"of {out.size} grid points differ from scipy"
    )


class TestScipyOracle:
    @_ORACLE
    @given(window=_windows())
    def test_spline_equals_cubic_spline(self, window):
        _assert_same_bytes("spline", window)

    @_ORACLE
    @given(window=_windows())
    def test_linear_equals_interp1d(self, window):
        _assert_same_bytes("linear", window)

    @_ORACLE
    @given(window=_windows())
    def test_previous_equals_interp1d(self, window):
        _assert_same_bytes("previous", window)

    @_ORACLE
    @given(window=_windows(nan=True), kind=st.sampled_from(["linear", "previous"]))
    def test_nan_speeds_pass_through_as_interp1d(self, window, kind):
        """A NaN bucket spoils the same grid points, with the same bits, as
        in interp1d's grid plus edge holds, so the interior-NaN fix-up
        regularize once applied on top of interp1d changed nothing."""
        _assert_same_bytes(kind, window)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spline_rejects_non_finite_as_cubic_spline(self, bad):
        interpolate = pytest.importorskip("scipy.interpolate")
        t = np.arange(0.0, 100.0, 10.0)
        v = np.cos(t)
        v[4] = bad
        with pytest.raises(ValueError) as ours:
            regularize(t, v, 0.0, 100.0)
        with pytest.raises(ValueError) as theirs:
            interpolate.CubicSpline(t, v)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize(
        "gaps, rows",
        [([1, 1, 200, 3, 2, 200, 1, 1], [1, 4]), ([3, 50, 300, 1, 1, 50], [1, 4, 5])],
    )
    def test_interchange_rows_equal_cubic_spline(self, gaps, rows, monkeypatch):
        """Short-short-long gaps make dgtsv interchange rows near either
        end, and on its last row when a long gap follows."""
        from repro.core import interpolation

        seen = []
        solve = interpolation._gtsv

        def spy(dl, d, du, b):
            last = dl[-1]
            out = solve(dl, d, du, b)
            n = len(d)
            # an interchange leaves a fill-in in dl, and on the last row
            # moves the sub-diagonal entry onto the diagonal
            seen.extend(i for i in range(n - 2) if dl[i] != 0.0)
            seen.extend([n - 2] if d[n - 2] == last else [])
            return out

        monkeypatch.setattr(interpolation, "_gtsv", spy)
        x = np.concatenate([[0.0], np.cumsum(gaps)])
        _assert_same_bytes("spline", (x + 0.25, 30.0 * np.sin(x), 0.0, x[-1] + 5.0, 1.0))
        assert seen == rows


class TestSplineInputs:
    def test_spline_needs_four_samples(self):
        t = np.arange(0.0, 100.0, 10.0)
        with pytest.raises(ValueError, match="min_samples >= 4"):
            regularize(t, np.cos(t), 0.0, 100.0, min_samples=3)

    @pytest.mark.parametrize("kind", ["linear", "previous"])
    def test_other_kinds_accept_fewer(self, kind):
        t = np.array([10.0, 50.0])
        _, out = regularize(t, np.array([1.0, 3.0]), 0.0, 100.0, kind=kind, min_samples=2)
        assert out[0] == 1.0 and out[-1] == 3.0

    def test_singular_system_raises(self):
        from repro.core.interpolation import _gtsv

        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _gtsv([0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0], [1.0, 1.0, 1.0])


# -- the import boundary -----------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ROOT = str(Path(__file__).resolve().parents[1])


def _run_python(code):
    """Standard output of ``code`` run in a fresh interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, _ROOT, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=_ROOT, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestRuntimeWithoutScipy:
    def test_pipeline_imports_leave_scipy_unloaded(self):
        """scipy is a test-only dependency: no runtime surface loads it."""
        code = (
            "import sys, repro.core.pipeline, repro.stream, repro.serve, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert _run_python(code) == "[]"

    def test_golden_payload_with_scipy_blocked(self):
        """With scipy unimportable, the sparse golden still comes out exact."""
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from tests.golden.scenarios import (\n"
            "    SPARSE_GOLDEN_SCENARIOS, compute_payload, load_fixture)\n"
            "spec = SPARSE_GOLDEN_SCENARIOS[0]\n"
            "actual = json.loads(json.dumps(compute_payload(spec)))\n"
            "print(actual == load_fixture(spec))\n"
        )
        assert _run_python(code) == "True"
