"""Cycle-length identification in the frequency domain (§V).

The approach speed near a light is (noisily) periodic with the signal
cycle.  After 1 Hz regularization, a DFT of the window yields a
magnitude spectrum whose strongest in-band component is the light's
frequency; the cycle length follows as ``window_length / bin_index``
(Eq. 2 of the paper — e.g. 37 cycles in an hour → 3600/37 ≈ 97 s).

Four refinements beyond the paper's literal argmax (all ablatable):

* **candidate re-scoring** — take the top-K spectral peaks and keep the
  one whose *epoch-folded* profile is most significantly non-flat
  (a z-scored χ² statistic).  The DFT alone confuses genuine signal
  periodicity with slow queue-size drift; folding does not.
* **sub-bin refinement** — a 30-minute DFT quantizes the period to
  ``1800/k`` seconds; a fine folding scan recovers the period to
  ~0.1 s, which the superposition step (§VI.B) needs to keep phase
  coherent across ~18 folded cycles.
* **stop-end comb fusion** — stop events end when the light turns
  green, so folded stop-end times form one sharp cluster per cycle at
  the true period (and a flat haze at wrong ones).  Their concentration
  z-score joins the folding statistic when the caller passes stop ends.
* **subharmonic check** — any signal periodic at ``c`` is equally
  periodic at ``2c`` and ``3c``; the raw argmax therefore sometimes
  lands on a multiple.  The winner's sub-multiples are rescanned and
  the smallest period achieving ≥ ``subharmonic_alpha`` of the peak
  score is preferred.

Set ``n_candidates=1, refine=False, stop_end_weight=0`` to reproduce
the paper's plain argmax (bench ``bench_ablation_dft``).

The stage itself — samples, regularization, one DFT for the whole city,
then :func:`_select_cycle` per light — runs in
:func:`repro.core.batch.identify_cycles`, for identification and for the
§VII monitor alike; this module holds its kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._util import check_1d, check_nonnegative, check_positive
from ..obs.telemetry import SupportsCount
from .signal_types import CycleEstimate

__all__ = [
    "CycleConfig",
    "spectrum",
    "fold_zscore",
    "stop_end_comb_zscore",
    "FoldScanner",
]


@dataclass(frozen=True)
class CycleConfig:
    """Parameters of the frequency-domain analysis.

    Parameters
    ----------
    min_cycle_s, max_cycle_s:
        Plausible cycle band; bins outside it are ignored.  Set
        ``min_cycle_s=2*dt`` and ``max_cycle_s`` to the window length to
        emulate the paper's unrestricted argmax.
    dt:
        Regularization grid step, seconds.
    kind:
        Interpolation kind (see
        :func:`repro.core.interpolation.regularize`).
    min_samples:
        Minimum non-empty buckets per window.
    n_candidates:
        How many spectral peaks compete in the folding re-score
        (1 = paper-literal argmax).
    refine:
        Run the fine folding scan on the winner.
    fold_bin_s:
        Profile bin width used by the candidate-selection statistic.
    refine_bin_s:
        Profile bin width for the fine scan (wider bins average more
        samples per bin and empirically localize the period better).
    stop_end_weight:
        Weight of the stop-end comb z-score in candidate scoring
        (0 disables; only active when the caller passes stop ends).
    subharmonic_alpha:
        A sub-multiple of the winning period is preferred when it
        scores at least this fraction of the winner's score.
    """

    min_cycle_s: float = 40.0
    max_cycle_s: float = 320.0
    dt: float = 1.0
    kind: str = "spline"
    min_samples: int = 8
    n_candidates: int = 5
    refine: bool = True
    fold_bin_s: float = 4.0
    refine_bin_s: float = 8.0
    stop_end_weight: float = 1.0
    subharmonic_alpha: float = 0.85

    def __post_init__(self) -> None:
        check_positive("min_cycle_s", self.min_cycle_s)
        check_positive("max_cycle_s", self.max_cycle_s)
        if self.max_cycle_s <= self.min_cycle_s:
            raise ValueError("max_cycle_s must exceed min_cycle_s")
        check_positive("dt", self.dt)
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        check_positive("fold_bin_s", self.fold_bin_s)
        check_positive("refine_bin_s", self.refine_bin_s)
        check_nonnegative("stop_end_weight", self.stop_end_weight)


def spectrum(values: np.ndarray, dt: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Magnitude spectrum of a regular signal.

    Returns ``(period_s, magnitude)`` over the positive-frequency bins
    ``n = 1 … N//2`` where ``period_s[n-1] = N*dt/n``.  The mean (DC) is
    removed first so bin 0 never masks the signal.
    """
    values = check_1d("values", values, min_len=4)
    x = values - values.mean()
    mag = np.abs(np.fft.rfft(x))
    n = np.arange(1, mag.shape[0])
    periods = (values.shape[0] * dt) / n
    return periods, mag[1:]


def fold_zscore(
    t: np.ndarray, v: np.ndarray, cycle_s: float, bin_s: float = 4.0
) -> float:
    """Significance of periodicity at ``cycle_s`` in raw samples.

    Folds the samples modulo the candidate period, bins them, and
    computes the epoch-folding χ² (between-bin variance of means scaled
    by the sample variance), z-scored against its null expectation so
    different candidate periods (different bin counts) are comparable.
    Larger is more periodic; ≲ 2 is noise.
    """
    t = check_1d("t", t)
    v = check_1d("v", v)
    if t.shape != v.shape:
        raise ValueError("t and v must have equal length")
    check_positive("cycle_s", cycle_s)
    check_positive("bin_s", bin_s)
    if t.size < 4:
        return -np.inf
    vm = v - v.mean()
    var = float(vm.var())
    if var <= 0:
        return -np.inf
    folded = np.mod(t - t.min(), cycle_s)
    n_bins = max(int(np.ceil(cycle_s / bin_s)), 2)
    idx = np.minimum((folded / bin_s).astype(np.int64), n_bins - 1)
    sums = np.bincount(idx, weights=vm, minlength=n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    filled = counts > 0
    k = int(filled.sum())
    if k < 2:
        return -np.inf
    # Full-length (no-compaction) reduction: empty bins contribute an
    # exact 0.0, so the sum's pairwise association — and hence the
    # last-bit rounding — is the same for every row of a batched
    # (n_candidates, n_bins) layout.  This is what lets
    # FoldScanner.scores match this function bit-for-bit.
    means = np.where(filled, sums / np.maximum(counts, 1), 0.0)
    chi2 = float(np.sum(counts * means**2) / var)
    return (chi2 - k) / np.sqrt(2.0 * k)


def stop_end_comb_zscore(
    ends: np.ndarray, cycle_s: float, bin_s: float = 4.0
) -> float:
    """Concentration of folded stop-end times at a candidate period.

    Queues dissolve when the light turns green, so stop-event end times
    fall in one tight cluster per cycle.  Folded at the true period the
    cluster stacks into one hot bin; at a wrong period it smears flat.
    Returns the z-score of the hottest bin against a uniform (Poisson)
    null; −inf with fewer than 5 events.
    """
    ends = check_1d("ends", ends)
    check_positive("cycle_s", cycle_s)
    check_positive("bin_s", bin_s)
    n = ends.shape[0]
    if n < 5:
        return -np.inf
    folded = np.mod(ends, cycle_s)
    n_bins = max(int(np.ceil(cycle_s / bin_s)), 2)
    idx = np.minimum((folded / bin_s).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    lam = n / n_bins
    return float((counts.max() - lam) / np.sqrt(lam + 1e-9))


#: Veltkamp's splitting constant for float64, ``2**27 + 1``: it splits a
#: period into a 26-bit head and a 26-bit tail whose sum is exact.
_SPLIT = 134217729.0


def _fold_phase(
    x: np.ndarray, cycles: np.ndarray, x_max: Optional[float] = None
) -> np.ndarray:
    """``np.mod(x[None, :], cycles[:, None])``, bit for bit, but cheaper.

    ``np.mod`` costs a software ``fmod`` per element.  Here each period
    is split as ``c = hi + lo`` (Veltkamp: two 26-bit halves) and, with
    the quotient ``q = floor(x * (1/c))``, the remainder is
    ``(x - q*hi) - q*lo``.  For ``x >= 0`` and ``q < 2**26`` the two
    products are exact, and so is the first difference, whose terms are
    multiples of ``x``'s ulp and which stays below the power of two above
    ``x``.  Only the last subtraction rounds.  When ``q`` is the true quotient, its exact
    result is ``fmod``'s, which is representable, so the result equals
    ``np.mod``.  ``q`` is off by at most one; the result then lands
    outside ``[0, c)``, and the element is redone with ``np.mod``.

    An ``x`` holding a negative value, NaN or inf, or a quotient of
    ``2**26`` or more, folds with ``np.mod`` throughout.  ``x_max`` is
    ``x``'s maximum, or NaN when ``x`` holds a negative value or NaN; it
    is computed when not given.
    """
    if x_max is None:
        x_max = float(x.max()) if x.size and x.min() >= 0 else np.nan
    c = cycles[:, None]
    inv = 1.0 / cycles
    if not x_max * inv.max(initial=0.0) < 2.0**26:
        return np.mod(x[None, :], c)
    hi = cycles * _SPLIT
    hi -= hi - cycles
    lo = cycles - hi
    q = x * inv[:, None]
    np.floor(q, out=q)
    r = q * hi[:, None]
    np.subtract(x, r, out=r)
    np.multiply(q, lo[:, None], out=q)
    r -= q
    redo = (r < 0) | (r >= c)
    if redo.any():
        r[redo] = np.mod(
            np.broadcast_to(x, r.shape)[redo], np.broadcast_to(c, r.shape)[redo]
        )
    return r


class FoldScanner:
    """Epoch-folding scans of one light's samples.

    Everything the scans share is computed once per light: the mean-free
    speeds, their variance, the time offsets ``t - t.min()`` and the stop
    ends they are folded with.  Each scan then scores a grid of candidate
    periods around a centre, clipped to the cycle band ``[lo_s, hi_s]``,
    and keeps its best candidate.

    ``ends`` and ``end_weight`` add the stop-end comb
    (:func:`stop_end_comb_zscore`) to every candidate's fold z-score.
    """

    def __init__(
        self,
        t: np.ndarray,
        v: np.ndarray,
        lo_s: float,
        hi_s: float,
        ends: Optional[np.ndarray] = None,
        end_weight: float = 0.0,
    ) -> None:
        self._lo_s, self._hi_s = lo_s, hi_s
        self._end_weight = end_weight
        self._n = t.shape[0]
        self._dead = self._n < 4
        if self._dead:
            return
        vm = v - v.mean()
        self._var = float(vm.var())
        self._dead = self._var <= 0
        x = t - t.min()
        if ends is not None and end_weight > 0 and ends.shape[0] >= 5:
            # Stop ends fold beside the samples and are counted in the
            # samples' bincount pass, with zero weight in its sums.
            x = np.concatenate([x, np.asarray(ends, dtype=np.float64)])
            vm = np.concatenate([vm, np.zeros(ends.shape[0])])
        self._x = x
        self._x_max = float(x.max()) if x.min() >= 0 else np.nan
        self._w = vm
        self._w_rows = vm

    def _weights(self, rows: int) -> np.ndarray:
        """The ``bincount`` weights of ``rows`` grid rows: ``_w`` repeated."""
        size = rows * self._w.shape[0]
        if self._w_rows.shape[0] < size:
            self._w_rows = np.tile(self._w, rows)
        return self._w_rows[:size]

    def scores(self, cycles: np.ndarray, bin_s: float) -> np.ndarray:
        """Combined fold (+ stop-end comb) z-scores at many candidate periods.

        Element ``j`` equals ``fold_zscore(t, v, cycles[j], bin_s)`` plus
        ``end_weight * stop_end_comb_zscore(ends, cycles[j], bin_s)`` when
        finite, bit for bit: every reduction runs over the same elements
        in the same order as the scalar kernels.  An offset ``bincount``
        keeps each bin's accumulation order, and each row's χ² is summed
        over exactly its own ``n_bins`` entries, never the padding.
        """
        cycles = np.asarray(cycles, dtype=np.float64)
        J = cycles.shape[0]
        if J == 0 or self._dead:
            return np.full(J, -np.inf)
        nb = np.maximum(np.ceil(cycles / bin_s).astype(np.int64), 2)
        NB = int(nb.max())
        block = J * NB
        idx = (_fold_phase(self._x, cycles, self._x_max) / bin_s).astype(np.int64)
        np.minimum(idx, (nb - 1)[:, None], out=idx)
        idx += (np.arange(J, dtype=np.int64) * NB)[:, None]
        n_ends = self._x.shape[0] - self._n
        if n_ends:
            idx[:, self._n:] += block
        flat = idx.ravel()
        counts_all = np.bincount(flat, minlength=2 * block if n_ends else block)
        counts = counts_all[:block].reshape(J, NB)
        sums = np.bincount(flat, weights=self._weights(J), minlength=block)
        sums = sums[:block].reshape(J, NB)
        k = (counts > 0).sum(axis=1)
        # An empty bin's sum is exactly 0.0, so its mean is the exact 0.0
        # fold_zscore puts there.
        means = sums / np.maximum(counts, 1)
        contrib = counts * means**2

        # Rows with equal bin counts are contiguous runs (a grid's periods
        # ascend); each run sums its rows' own n_bins entries, the same
        # pairwise reduction fold_zscore performs per period.
        chi2 = np.empty(J)
        cuts = [0, *(np.flatnonzero(np.diff(nb)) + 1), J]
        for a, b in zip(cuts[:-1], cuts[1:]):
            chi2[a:b] = np.add.reduce(contrib[a:b, : nb[a]], axis=1) / self._var
        z = np.where(
            k >= 2,
            (chi2 - k) / np.sqrt(2.0 * np.maximum(k, 1)),
            -np.inf,
        )
        if n_ends:
            counts_e = counts_all[block:].reshape(J, NB)
            lam = n_ends / nb
            ze = (counts_e.max(axis=1) - lam) / np.sqrt(lam + 1e-9)
            z = np.where(np.isfinite(z), z + self._end_weight * ze, z)
        return z

    def _grid(self, center_s: float, half_width_s: float, step_s: float) -> np.ndarray:
        """Candidate periods around ``center_s``, clipped to the band.

        The clip matters: the float ``arange`` endpoint
        (``hi + step/2``) can otherwise emit a candidate up to half a
        step *outside* the band, letting refined or subharmonic periods
        escape ``[min_cycle_s, max_cycle_s]``.
        """
        lo = max(center_s - half_width_s, self._lo_s)
        hi = min(center_s + half_width_s, self._hi_s)
        return np.clip(np.arange(lo, hi + step_s / 2, step_s), lo, hi)

    def scan_many(
        self,
        centers: Sequence[float],
        half_width_s: float,
        step_s: float,
        bin_s: float,
    ) -> List[Tuple[float, float]]:
        """Best ``(cycle, z)`` of each centre's grid, scored in one call.

        A grid with no finite score yields ``(centre, -inf)``.  Within a
        grid the first maximum wins.
        """
        grids = [self._grid(c, half_width_s, step_s) for c in centers]
        z_all = self.scores(np.concatenate(grids), bin_s)
        best: List[Tuple[float, float]] = []
        start = 0
        for center_s, grid in zip(centers, grids):
            z = z_all[start:start + grid.shape[0]]
            start += grid.shape[0]
            z = np.where(np.isnan(z), -np.inf, z)
            j = int(np.argmax(z)) if z.size else 0
            if z.size and z[j] > -np.inf:
                best.append((float(grid[j]), float(z[j])))
            else:
                best.append((float(center_s), -np.inf))
        return best

    def scan(
        self, center_s: float, half_width_s: float, step_s: float, bin_s: float
    ) -> Tuple[float, float]:
        """Best ``(cycle, z)`` on the grid around ``center_s``."""
        return self.scan_many([center_s], half_width_s, step_s, bin_s)[0]


def _select_cycle(
    t: np.ndarray,
    v: np.ndarray,
    periods: np.ndarray,
    mag: np.ndarray,
    in_band: np.ndarray,
    config: CycleConfig,
    *,
    enhanced: bool = False,
    stop_ends: Optional[np.ndarray] = None,
    telemetry: Optional[SupportsCount] = None,
) -> CycleEstimate:
    """Candidate re-scoring + refinement on a precomputed spectrum.

    The cycle stage's selection, run per light by
    :func:`repro.core.batch.identify_cycles`: top-K spectral peaks →
    folding re-score → fine scan → subharmonic check.  One :class:`FoldScanner`
    serves every scan of the light; the K candidates' grids are scored
    in one call, and the subharmonic divisors one at a time, because the
    first that qualifies ends the check.
    """
    band_mag = np.where(in_band, mag, -np.inf)
    order = np.argsort(band_mag)[::-1]
    k = min(config.n_candidates, int(in_band.sum()))
    candidates = order[:k]
    ends = None
    if stop_ends is not None and config.stop_end_weight > 0:
        ends = np.asarray(stop_ends, dtype=np.float64)
    if telemetry is not None:
        telemetry.count("cycle_candidates_scanned", k)
    scanner = FoldScanner(
        t, v, config.min_cycle_s, config.max_cycle_s, ends, config.stop_end_weight
    )

    if k == 1 or t.size < 8:
        chosen = int(candidates[0])
        cycle_s = float(periods[chosen])
        z = fold_zscore(t, v, cycle_s, config.fold_bin_s)
    else:
        chosen, cycle_s, z = int(candidates[0]), float(periods[candidates[0]]), -np.inf
        scans = scanner.scan_many(
            [float(periods[b]) for b in candidates], 4.0, 0.5, config.fold_bin_s
        )
        for b, (c, zc) in zip(candidates, scans):
            if zc > z:
                chosen, cycle_s, z = int(b), c, zc

    if config.refine and t.size >= 8:
        if telemetry is not None:
            telemetry.count("cycle_refine_scans", 1)
        cycle_s, z = scanner.scan(cycle_s, 1.5, 0.05, config.refine_bin_s)
        # Subharmonic check: prefer the smallest period that explains
        # (nearly) as much of the structure as the winner.  Rational
        # divisors catch p/q locking (e.g. 3/2 when platoons skip every
        # other cycle on coordinated arterials).
        for div in (4, 3, 2, 1.5):
            cand = cycle_s / div
            if cand < config.min_cycle_s:
                continue
            if telemetry is not None:
                telemetry.count("cycle_subharmonic_scans", 1)
            c_sub, z_sub = scanner.scan(cand, 2.5, 0.05, config.refine_bin_s)
            if np.isfinite(z_sub) and z_sub >= config.subharmonic_alpha * z:
                cycle_s, z = c_sub, z_sub
                break

    peak = float(mag[chosen])
    med = float(np.median(mag[in_band]))
    quality = z if np.isfinite(z) else (peak / med if med > 0 else float("inf"))
    return CycleEstimate(
        cycle_s=float(cycle_s),
        peak_index=chosen + 1,
        peak_magnitude=peak,
        quality=float(quality),
        n_samples=int(t.shape[0]),
        enhanced=enhanced,
    )
