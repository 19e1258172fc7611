"""Property + bitwise-parity tests for the identification kernels.

Three layers of evidence back the kernels the pipeline runs:

* **mathematical properties** of the underlying statistics — epoch
  folding is invariant to whole-cycle time shifts, the circular moving
  average commutes with circular rolls, and the DFT recovers a square
  wave's period exactly when it divides the window;
* **the exact remainder** behind every fold scan equals ``np.mod`` bit
  for bit, on times at and around whole multiples of the period; and
* **bitwise parity** of every vectorized kernel against its scalar
  counterpart, on randomized inputs — the fold scanner against the
  scalar scan loop kept below as the oracle, the batched kernels of
  :mod:`repro.core.batch` against theirs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    circular_moving_average_batch,
    cycle_profile_batch,
    spectra_batch,
)
from repro.core.changepoint import circular_moving_average
from repro.core.cycle import (
    FoldScanner,
    _fold_phase,
    fold_zscore,
    spectrum,
    stop_end_comb_zscore,
)
from repro.core.superposition import cycle_profile


def fold_zscore_grid(t, v, cycles, bin_s, ends=None, end_weight=0.0):
    """One-shot :meth:`FoldScanner.scores` with an unbounded band."""
    scanner = FoldScanner(t, v, 0.0, np.inf, ends=ends, end_weight=end_weight)
    return scanner.scores(cycles, bin_s)


def _scan_fold(
    t, v, center_s, half_width_s, step_s, bin_s, lo_s, hi_s, ends=None, end_weight=0.0
):
    """The scalar scan loop: the oracle every :class:`FoldScanner` scan equals.

    Scores the clipped candidate grid one period at a time with the
    scalar kernels and keeps the first maximum.
    """
    lo = max(center_s - half_width_s, lo_s)
    hi = min(center_s + half_width_s, hi_s)
    best_c, best_z = float(center_s), -np.inf
    for c in np.clip(np.arange(lo, hi + step_s / 2, step_s), lo, hi):
        z = fold_zscore(t, v, c, bin_s)
        if ends is not None and end_weight > 0 and np.isfinite(z):
            ze = stop_end_comb_zscore(ends, c, bin_s)
            if np.isfinite(ze):
                z += end_weight * ze
        if z > best_z:
            best_z, best_c = z, float(c)
    return best_c, best_z


def _scalar_scores(t, v, cycles, bin_s, ends=None, end_weight=0.0):
    """Per-period fold z-score plus the weighted comb, the scalar way."""
    out = []
    for c in cycles:
        z = fold_zscore(t, v, float(c), bin_s)
        if ends is not None and end_weight > 0 and np.isfinite(z):
            ze = stop_end_comb_zscore(ends, float(c), bin_s)
            if np.isfinite(ze):
                z += end_weight * ze
        out.append(z)
    return np.array(out)


def _assert_same_bits(got, ref):
    """Equal bit patterns, with NaN (any payload) in the same positions."""
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64))


def _samples(rng, n=400, span=3600.0, period=98.0, noise=3.0):
    """Noisy periodic speed samples on a 0.25 s grid (exact arithmetic)."""
    t = np.sort(rng.choice(np.arange(0.0, span, 0.25), size=n, replace=False))
    v = np.clip(
        25.0 + 20.0 * np.cos(2 * np.pi * t / period)
        + rng.normal(0.0, noise, n),
        0.0, None,
    )
    return t, v


class TestFoldShiftInvariance:
    """Folding must not care *where* the window sits on the time axis."""

    def test_whole_cycle_shifts_leave_zscore_unchanged(self):
        rng = np.random.default_rng(0)
        cycle = 96.0  # exactly representable; 0.25 s grid keeps t + k*cycle exact
        t, v = _samples(rng, period=cycle)
        base = fold_zscore(t, v, cycle, 4.0)
        assert np.isfinite(base)
        for k in (1, 3, 17):
            # global shift by k whole cycles
            assert fold_zscore(t + k * cycle, v, cycle, 4.0) == base
        # independent per-sample shifts by whole cycles: the fold stacks
        # every sample into the same in-cycle second regardless.  The
        # earliest sample anchors the fold (t - t.min()), so it keeps
        # shift 0; everything else may jump any whole number of cycles.
        shifts = rng.integers(0, 8, t.shape[0]).astype(float) * cycle
        shifts[0] = 0.0
        assert fold_zscore(t + shifts, v, cycle, 4.0) == base

    def test_grid_kernel_shares_the_invariance(self):
        rng = np.random.default_rng(1)
        cycle = 96.0
        t, v = _samples(rng, period=cycle)
        cycles = np.array([48.0, 96.0, 100.0, 192.0])
        base = fold_zscore_grid(t, v, cycles, 4.0)
        shifted = fold_zscore_grid(t + 5 * 96.0, v, cycles, 4.0)
        # only the commensurate candidates are invariant — which is the point
        assert shifted[1] == base[1]
        assert shifted[0] == base[0]  # 48 divides 96
        assert np.argmax(base) == 1  # true period wins


class TestCircularMovingAverageProperties:
    def test_commutes_with_circular_roll(self):
        rng = np.random.default_rng(2)
        profile = rng.normal(10.0, 4.0, 98)
        for w in (1, 5, 39, 98):
            ref = circular_moving_average(profile, w)
            for s in (1, 17, 49, 97):
                rolled = circular_moving_average(np.roll(profile, s), w)
                np.testing.assert_allclose(
                    rolled, np.roll(ref, s), rtol=0, atol=1e-9
                )

    def test_full_window_is_global_mean(self):
        rng = np.random.default_rng(3)
        profile = rng.normal(0.0, 1.0, 60)
        out = circular_moving_average(profile, 60)
        np.testing.assert_allclose(out, np.full(60, profile.mean()), atol=1e-12)


class TestDftSquareWaveRecovery:
    def test_exact_recovery_over_40_random_draws(self):
        """§V's core claim: the DFT peak sits at the true cycle.

        40 random (cycle, phase, noise) draws; every cycle divides the
        1800 s window so its DFT bin exists exactly — recovery must be
        exact, not approximate, and the whole batch runs through one rfft.
        """
        rng = np.random.default_rng(4)
        n = 1800
        tt = np.arange(n, dtype=float)
        ks = rng.integers(6, 46, size=40)  # cycle = 1800/k in [40, 300] s
        cycles_true = n / ks
        sigs = np.empty((40, n))
        for i, (_k, cyc) in enumerate(zip(ks, cycles_true)):
            phase = rng.uniform(0.0, cyc)
            red_frac = rng.uniform(0.3, 0.6)
            in_red = np.mod(tt + phase, cyc) < red_frac * cyc
            sigs[i] = np.where(in_red, 2.0, 30.0) + rng.normal(
                0.0, rng.uniform(0.1, 1.0), n
            )
        periods, mags = spectra_batch(sigs)
        in_band = (periods >= 40.0) & (periods <= 320.0)
        for i, cyc in enumerate(cycles_true):
            band = np.where(in_band, mags[i], -np.inf)
            assert periods[np.argmax(band)] == cyc, f"draw {i}"


class TestBitwiseKernelParity:
    """Each batched kernel must equal its serial counterpart bit-for-bit."""

    def test_spectra_batch_rows_match_spectrum(self):
        rng = np.random.default_rng(5)
        sigs = rng.normal(20.0, 8.0, (7, 901))
        periods_b, mags_b = spectra_batch(sigs)
        for i in range(7):
            periods_s, mag_s = spectrum(sigs[i])
            np.testing.assert_array_equal(periods_b, periods_s)
            np.testing.assert_array_equal(mags_b[i], mag_s)

    def test_fold_zscore_grid_matches_scalar_kernel(self):
        rng = np.random.default_rng(6)
        t, v = _samples(rng)
        cycles = np.concatenate([
            np.arange(40.0, 320.0, 7.3),
            [97.9, 98.0, 98.1],
        ])
        z = fold_zscore_grid(t, v, cycles, 4.0)
        for j, c in enumerate(cycles):
            assert z[j] == fold_zscore(t, v, float(c), 4.0), c

    @pytest.mark.parametrize("with_ends", [False, True])
    def test_scanner_matches_scalar_scan(self, with_ends):
        rng = np.random.default_rng(7)
        ends = np.sort(rng.uniform(0.0, 3600.0, 24)) if with_ends else None
        ew = 0.3 if with_ends else 0.0
        for seed in range(6):
            t, v = _samples(np.random.default_rng(100 + seed))
            for args in [
                (98.0, 4.0, 0.5, 4.0, 40.0, 320.0),
                (98.0, 1.5, 0.05, 1.0, 40.0, 320.0),
                (49.0, 2.5, 0.05, 1.0, 40.0, 320.0),  # subharmonic probe
                (41.0, 4.0, 0.5, 4.0, 40.0, 320.0),   # clipped at the band edge
            ]:
                center, hw, step, bin_s, lo, hi = args
                ref = _scan_fold(t, v, *args, ends=ends, end_weight=ew)
                scanner = FoldScanner(t, v, lo, hi, ends=ends, end_weight=ew)
                assert scanner.scan(center, hw, step, bin_s) == ref, (seed, args)

    def test_scan_many_matches_one_scan_per_centre(self):
        rng = np.random.default_rng(11)
        t, v = _samples(rng)
        ends = np.sort(rng.uniform(0.0, 3600.0, 30))
        # 41 and 318 clip at the band edges; 400 lies outside it (empty grid)
        centers = [98.0, 41.0, 318.0, 65.3, 400.0]
        scanner = FoldScanner(t, v, 40.0, 320.0, ends=ends, end_weight=1.0)
        many = scanner.scan_many(centers, 4.0, 0.5, 4.0)
        for c, got in zip(centers, many):
            ref = _scan_fold(t, v, c, 4.0, 0.5, 4.0, 40.0, 320.0, ends, 1.0)
            assert got == ref, c
        assert many[-1] == (400.0, -np.inf)

    def test_scanner_degenerate_inputs(self):
        t = np.array([0.0, 10.0, 20.0])  # < 4 samples: every z is -inf
        v = np.array([1.0, 2.0, 3.0])
        args = (98.0, 4.0, 0.5, 4.0, 40.0, 320.0)
        assert FoldScanner(t, v, 40.0, 320.0).scan(*args[:4]) == _scan_fold(t, v, *args)
        flat = np.full(50, 7.0)  # zero variance
        tt = np.linspace(0.0, 3000.0, 50)
        assert FoldScanner(tt, flat, 40.0, 320.0).scan(*args[:4]) == _scan_fold(
            tt, flat, *args
        )

    def test_cycle_profile_batch_matches_serial(self):
        rng = np.random.default_rng(8)
        entries = []
        for i in range(6):
            t, v = _samples(np.random.default_rng(200 + i), n=300)
            entries.append((t, v, float(rng.uniform(60.0, 130.0)), 3600.0))
        profiles = cycle_profile_batch(entries)
        for (t, v, cyc, anchor), prof in zip(entries, profiles):
            ref = cycle_profile(t, v, cyc, anchor)
            np.testing.assert_array_equal(prof, ref)

    def test_cycle_profile_batch_contains_empty_lights(self):
        t, v = _samples(np.random.default_rng(9), n=200)
        empty = (np.empty(0), np.empty(0), 98.0, 0.0)
        profiles = cycle_profile_batch([(t, v, 98.0, 0.0), empty])
        assert profiles[1] is None  # contained, not raised
        np.testing.assert_array_equal(profiles[0], cycle_profile(t, v, 98.0, 0.0))

    def test_circular_moving_average_batch_matches_serial(self):
        rng = np.random.default_rng(10)
        profiles = [rng.normal(15.0, 5.0, n) for n in (98, 60, 131, 40)]
        windows = [39, 1, 131, 7]  # includes the w == 1 and w == n edges
        outs = circular_moving_average_batch(profiles, windows)
        for p, w, out in zip(profiles, windows, outs):
            np.testing.assert_array_equal(out, circular_moving_average(p, w))

    def test_circular_moving_average_batch_validates_windows(self):
        p = np.ones(10)
        with pytest.raises(ValueError):
            circular_moving_average_batch([p], [0])
        with pytest.raises(ValueError):
            circular_moving_average_batch([p], [11])


#: Periods across the cycle band, its clip edges, powers of two and
#: periods just below one (where the tail of the split peaks).
_PERIODS = st.one_of(
    st.floats(40.0, 320.0),
    st.sampled_from([
        40.0, 320.0,
        float(np.nextafter(40.0, np.inf)), float(np.nextafter(320.0, -np.inf)),
        64.0, 128.0, 256.0,
        float(np.nextafter(128.0, 0.0)), 127.9999, 255.99995, 97.95, 98.05,
    ]),
)


@st.composite
def _fold_inputs(draw):
    """Times in [0, 86 400] s, many at or one ulp off a whole multiple."""
    cycles = np.array(draw(st.lists(_PERIODS, min_size=1, max_size=6)))
    xs = []
    for _ in range(draw(st.integers(1, 40))):
        c = float(cycles[draw(st.integers(0, cycles.size - 1))])
        base = draw(st.integers(0, int(86400.0 // c))) * c
        kind = draw(st.sampled_from(["any", "at", "below", "above", "zero"]))
        xs.append({
            "any": draw(st.floats(0.0, 86400.0)),
            "at": base,
            "below": float(np.nextafter(base, -np.inf)),
            "above": float(np.nextafter(base, np.inf)),
            "zero": 0.0,
        }[kind])
    return np.array(xs), cycles


class TestExactRemainder:
    """The fold phase every scan uses is ``np.mod``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_fold_inputs())
    def test_equals_np_mod_bit_for_bit(self, inputs):
        x, cycles = inputs
        ref = np.mod(x[None, :], cycles[:, None])
        _assert_same_bits(_fold_phase(x, cycles), ref)

    @settings(max_examples=100, deadline=None)
    @given(_fold_inputs(), st.data())
    def test_nan_and_inf_fold_to_nan_in_place(self, inputs, data):
        x, cycles = inputs
        n_bad = data.draw(st.integers(1, x.size))
        where = data.draw(st.permutations(range(x.size)))[:n_bad]
        x = x.copy()
        x[where] = data.draw(
            st.lists(st.sampled_from([np.nan, np.inf]), min_size=n_bad, max_size=n_bad)
        )
        with np.errstate(invalid="ignore"):  # np.mod's own inf warning
            ref = np.mod(x[None, :], cycles[:, None])
            got = _fold_phase(x, cycles)
        _assert_same_bits(got, ref)
        assert np.isnan(got[:, where]).all()

    def test_negative_times_fold_like_np_mod(self):
        x = np.array([-1e-20, -5.0, -98.0, 3.0, 86400.0])
        cycles = np.array([40.0, 98.0, 319.95])
        _assert_same_bits(_fold_phase(x, cycles), np.mod(x[None, :], cycles[:, None]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(1e9, 1e12), min_size=1, max_size=30),
        st.lists(_PERIODS, min_size=1, max_size=4),
    )
    def test_huge_times_fold_like_np_mod(self, xs, cycles):
        # Epoch-scale times: quotients pass 2**26 and np.mod takes over.
        x, cycles = np.array(xs), np.array(cycles)
        _assert_same_bits(_fold_phase(x, cycles), np.mod(x[None, :], cycles[:, None]))

    def test_off_by_one_quotients_are_redone(self):
        # Times one ulp below a whole multiple: x * (1/c) often rounds up
        # to the multiple, and the remainder must still come out < c.
        cycles = np.arange(40.0, 320.0, 0.05)
        k = np.arange(1, 200)
        for c in cycles[::97]:
            x = np.nextafter(k * c, -np.inf)
            got = _fold_phase(x, np.array([c]))
            _assert_same_bits(got, np.mod(x[None, :], c))
            assert (got >= 0).all() and (got < c).all()


def _off_grid_samples(rng, n=300, span=3600.0, period=98.3):
    """Noisy periodic samples at continuous (not 0.25 s grid) times."""
    t = np.sort(rng.uniform(0.0, span, n)) + 21600.0
    v = np.clip(
        25.0 + 20.0 * np.cos(2 * np.pi * t / period) + rng.normal(0.0, 3.0, n),
        0.0, None,
    )
    return t, v


class TestFoldGridEqualsScalar:
    """fold_zscore_grid against fold_zscore (+ comb), element by element."""

    @pytest.mark.parametrize("with_ends", [False, True])
    def test_off_grid_float_times(self, with_ends):
        rng = np.random.default_rng(21)
        t, v = _off_grid_samples(rng)
        ends = np.sort(rng.uniform(21600.0, 25200.0, 40)) if with_ends else None
        cycles = np.clip(np.arange(94.3, 102.3 + 0.25, 0.5), 40.0, 320.0)
        for bin_s in (4.0, 8.0):
            z = fold_zscore_grid(t, v, cycles, bin_s, ends=ends, end_weight=1.0)
            _assert_same_bits(z, _scalar_scores(t, v, cycles, bin_s, ends, 1.0))

    def test_three_second_bins(self):
        rng = np.random.default_rng(22)
        t, v = _off_grid_samples(rng)
        ends = np.sort(rng.uniform(21600.0, 25200.0, 40))
        cycles = np.clip(np.arange(94.3, 102.3 + 0.25, 0.5), 40.0, 320.0)
        for e in (None, ends):
            z = fold_zscore_grid(t, v, cycles, 3.0, ends=e, end_weight=0.7)
            _assert_same_bits(z, _scalar_scores(t, v, cycles, 3.0, e, 0.7))

    def test_the_last_bin_clamp_fires(self):
        # A nonnegative phase never reaches n_bins: r < c keeps r / bin
        # below ceil(c / bin) after rounding, for 3 s bins too.  A stop
        # end a hair below zero does: np.mod folds it to exactly c, which
        # is n_bins when the bin divides the period.  The clamp puts it in
        # the last bin, in the grid kernel as in the scalar comb.
        rng = np.random.default_rng(24)
        t, v = _off_grid_samples(rng)
        ends = np.concatenate([[-1e-300, -1e-18], rng.uniform(0.0, 3600.0, 20)])
        cycles = np.array([45.0, 57.0, 69.0, 99.0, 141.0, 201.0])
        nb = np.ceil(cycles / 3.0).astype(np.int64)
        idx = (np.mod(ends[None, :], cycles[:, None]) / 3.0).astype(np.int64)
        assert (idx >= nb[:, None]).any(axis=1).all(), "the clamp must fire"
        z = fold_zscore_grid(t, v, cycles, 3.0, ends=ends, end_weight=0.7)
        _assert_same_bits(z, _scalar_scores(t, v, cycles, 3.0, ends, 0.7))

    @pytest.mark.parametrize("with_ends", [False, True])
    def test_non_monotone_cycles_with_repeating_runs(self, with_ends):
        rng = np.random.default_rng(23)
        t, v = _off_grid_samples(rng)
        ends = np.sort(rng.uniform(21600.0, 25200.0, 30)) if with_ends else None
        # bin counts 25 25 15 16 25 25 16 80 15 80: equal counts recur in
        # separate runs
        cycles = np.array(
            [98.0, 98.5, 60.0, 61.0, 98.2, 98.9, 60.5, 320.0, 57.5, 318.3]
        )
        z = fold_zscore_grid(t, v, cycles, 4.0, ends=ends, end_weight=1.0)
        _assert_same_bits(z, _scalar_scores(t, v, cycles, 4.0, ends, 1.0))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(_PERIODS, min_size=1, max_size=12),
        st.sampled_from([3.0, 4.0, 8.0]),
    )
    def test_random_cities(self, seed, cycles, bin_s):
        rng = np.random.default_rng(seed)
        t, v = _off_grid_samples(rng, n=int(rng.integers(4, 200)))
        ends = np.sort(rng.uniform(21600.0, 25200.0, int(rng.integers(0, 20))))
        cycles = np.array(cycles)
        z = fold_zscore_grid(t, v, cycles, bin_s, ends=ends, end_weight=0.5)
        _assert_same_bits(z, _scalar_scores(t, v, cycles, bin_s, ends, 0.5))
