"""Time-domain regularization of sparse speed samples (§V.A, Fig. 6).

Raw taxi updates are irregular (data missing) and several taxis may
report in the same second on the same approach (data redundancy).  The
paper's fix, reproduced here:

1. bucket samples to a 1 Hz grid, replacing same-second collisions with
   their **mean**;
2. **spline-interpolate** the missing seconds to get a smooth signal.

The interpolated speed may go negative; as the paper notes, that is
harmless because only the *frequency* of the signal matters downstream,
so no clamping is applied.

The spline is scipy's not-a-knot ``CubicSpline(x, y,
extrapolate=False)`` redone in numpy, operation for operation, so the
pipeline needs no scipy at run time.  The tridiagonal system is
assembled as ``CubicSpline.__init__`` does and solved by a
statement-for-statement transcription of LAPACK ``dgtsv`` (the routine
``solve_banded((1, 1), …)`` calls); the Hermite coefficients follow
``CubicHermiteSpline`` and the evaluation ``PPoly``.  Every grid is byte-identical to scipy's, and
``tests/test_interpolation.py`` checks that against scipy itself.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .._util import check_1d, check_positive
from .signal_types import InsufficientDataError

__all__ = ["bucket_mean", "regularize"]

#: Interpolation kinds accepted by :func:`regularize`.
KINDS = ("spline", "linear", "previous")


def bucket_mean(
    t: np.ndarray, v: np.ndarray, t0: float, t1: float, dt: float = 1.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Average samples falling into the same ``dt`` bucket of ``[t0, t1)``.

    Returns ``(bucket_times, bucket_means)`` for non-empty buckets only;
    bucket time is the bucket's left edge.  Fully vectorized
    (``bincount`` of sums over counts).
    """
    t = check_1d("t", t)
    v = check_1d("v", v)
    if t.shape != v.shape:
        raise ValueError("t and v must have equal length")
    check_positive("dt", dt)
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    keep = (t >= t0) & (t < t1)
    t, v = t[keep], v[keep]
    if t.size == 0:
        return np.empty(0), np.empty(0)
    n_buckets = int(np.ceil((t1 - t0) / dt))
    idx = np.minimum(((t - t0) / dt).astype(np.int64), n_buckets - 1)
    sums = np.bincount(idx, weights=v, minlength=n_buckets)
    counts = np.bincount(idx, minlength=n_buckets)
    filled = counts > 0
    means = sums[filled] / counts[filled]
    times = t0 + np.flatnonzero(filled) * dt
    return times, means


def _gtsv(dl: List[float], d: List[float], du: List[float], b: List[float]) -> List[float]:
    """Solve a tridiagonal system exactly as LAPACK ``dgtsv`` does (NRHS = 1).

    Gaussian elimination with partial pivoting on the sub-, main and
    super-diagonals ``dl`` (n-1), ``d`` (n) and ``du`` (n-1); all four
    lists are overwritten and ``b`` is returned as the solution.  Python
    floats are IEEE doubles, so the same operations in the same order
    give LAPACK's solution bit for bit.  dgtsv's separate step for the
    last row is the loop's last pass, which has no fill-in to make.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange required
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i+1; dl[i] then holds the fill-in
            # of U's second superdiagonal
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    # back solve with the upper factor
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _spline(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through ``(x, y)`` (n >= 4), at ``g`` in ``[x[0], x[-1]]``."""
    n = x.shape[0]
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # CubicSpline.__init__: the three diagonals of its banded matrix
    # (sub, main, super) and the right-hand side, in its expressions.
    dl = np.empty(n - 1)
    d = np.empty(n)
    du = np.empty(n - 1)
    b = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    h = x[2] - x[0]
    d[0] = dx[1]
    du[0] = h
    b[0] = ((dx[0] + 2 * h) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h
    h = x[-1] - x[-3]
    d[-1] = dx[-2]
    dl[-1] = h
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h + dx[-1]) * dx[-2] * slope[-1]) / h
    s = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()), dtype=np.float64)
    # CubicHermiteSpline: PPoly coefficients, highest degree first
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    # PPoly: interval i with x[i] <= g < x[i+1], the last knot closing
    # the last interval; powers of s built up and summed term by term
    i = np.minimum(np.searchsorted(x, g, side="right") - 1, n - 2)
    u = g - x[i]
    uu = u * u
    return 0.0 + y[i] + s[i] * u + c1[i] * uu + c0[i] * (uu * u)


def regularize(
    t: np.ndarray,
    v: np.ndarray,
    t0: float,
    t1: float,
    *,
    dt: float = 1.0,
    kind: str = "spline",
    min_samples: int = 4,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resample irregular samples onto a dense grid over ``[t0, t1)``.

    Parameters
    ----------
    t, v:
        Sample times (absolute seconds) and values (speed).
    t0, t1:
        Window; grid points are ``t0, t0+dt, …``.
    dt:
        Grid step (1 s in the paper).
    kind:
        ``"spline"`` (paper's choice, C² cubic), ``"linear"``, or
        ``"previous"`` (zero-order hold) — the latter two exist for the
        ablation benchmark.
    min_samples:
        Minimum distinct buckets required; below this the window can't
        support interpolation and :class:`InsufficientDataError` is
        raised.  The spline needs at least 4.

    Returns
    -------
    (grid, values):
        ``grid`` has ``ceil((t1-t0)/dt)`` points.  Outside the convex
        hull of the samples, values are held at the edge sample (splines
        explode when extrapolated; a constant is the honest choice).

    Raises
    ------
    ValueError
        For an unknown ``kind``, a spline with ``min_samples < 4``, or a
        spline through a non-finite bucket mean.  ``"linear"`` and
        ``"previous"`` raise none: as with ``interp1d``, a NaN bucket
        mean turns the grid points that depend on it into NaN.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "spline" and min_samples < 4:
        raise ValueError(f"a spline needs min_samples >= 4, got {min_samples}")
    bt, bv = bucket_mean(t, v, t0, t1, dt)
    if bt.size < min_samples:
        raise InsufficientDataError(
            f"window [{t0}, {t1}) has {bt.size} non-empty buckets; "
            f"need at least {min_samples}"
        )
    grid = t0 + np.arange(int(np.ceil((t1 - t0) / dt))) * dt
    if kind == "linear":
        # interp1d's own route for 1-D float64; its out-of-range values
        # are the edge samples already.
        return grid, np.interp(grid, bt, bv)
    if kind == "previous":
        # interp1d searches nextafter(x, -inf) from the left, which is
        # this index; clipping at 0 holds the first sample before it.
        i = np.searchsorted(bt, grid, side="right") - 1
        return grid, bv[np.maximum(i, 0)]
    if not np.isfinite(bv).all():
        raise ValueError("`y` must contain only finite values.")
    lo = int(np.searchsorted(grid, bt[0], side="left"))
    hi = int(np.searchsorted(grid, bt[-1], side="right"))
    out = np.empty(grid.shape[0])
    out[:lo] = bv[0]
    out[lo:hi] = _spline(bt, bv, grid[lo:hi])
    out[hi:] = bv[-1]
    return grid, out
