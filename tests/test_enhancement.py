"""Unit tests for intersection-based enhancement (§V.B, Eq. 3)."""

import numpy as np
import pytest

from repro.core.enhancement import choose_primary, enhance_samples, mirror_speeds

from tests.test_cycle import cycle_from_samples


class TestMirror:
    def test_reflection_about_mean(self):
        out = mirror_speeds(np.array([0.0, 10.0, 20.0]), mean_speed=10.0)
        np.testing.assert_allclose(out, [20.0, 10.0, 0.0])

    def test_clamped_at_zero(self):
        out = mirror_speeds(np.array([50.0]), mean_speed=10.0)
        assert out[0] == 0.0  # 2*10-50 = -30 -> clamp


class TestChoosePrimary:
    def test_denser_first(self):
        ta, va = np.arange(10.0), np.ones(10)
        tb, vb = np.arange(3.0), np.zeros(3)
        t1, v1, t2, v2 = choose_primary(tb, vb, ta, va)
        assert t1.size == 10 and t2.size == 3


class TestEnhanceSamples:
    def test_primary_wins_collisions(self):
        tp = np.array([10.0, 20.0])
        vp = np.array([5.0, 6.0])
        tq = np.array([10.4, 30.0])  # 10.4 collides with bucket 10
        vq = np.array([100.0, 0.0])
        t, v = enhance_samples(tp, vp, tq, vq)
        assert t.size == 3
        # the colliding perpendicular sample was discarded
        assert 100.0 not in np.round(2 * np.mean(np.concatenate([vp, vq])) - v, 6)
        assert set(np.round(t, 1)) == {10.0, 20.0, 30.0}

    def test_mirrored_values_enter_free_slots(self):
        tp = np.array([0.0])
        vp = np.array([10.0])
        tq = np.array([50.0])
        vq = np.array([2.0])
        t, v = enhance_samples(tp, vp, tq, vq)
        mean = (10.0 + 2.0) / 2
        assert v[t == 50.0][0] == pytest.approx(max(0.0, 2 * mean - 2.0))

    def test_sorted_output(self, rng):
        tp = np.sort(rng.uniform(0, 100, 20))
        tq = np.sort(rng.uniform(0, 100, 20))
        t, v = enhance_samples(tp, rng.uniform(0, 10, 20), tq, rng.uniform(0, 10, 20))
        assert np.all(np.diff(t) >= 0)

    def test_empty_perpendicular(self):
        t, v = enhance_samples(np.array([1.0]), np.array([2.0]), np.array([]), np.array([]))
        assert t.tolist() == [1.0] and v.tolist() == [2.0]

    def test_empty_primary_mirrors_everything(self):
        t, v = enhance_samples(np.array([]), np.array([]),
                               np.array([5.0]), np.array([3.0]))
        assert t.tolist() == [5.0]
        assert v[0] == pytest.approx(3.0)  # mirrored about its own mean

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            enhance_samples(np.array([1.0]), np.array([1.0, 2.0]),
                            np.array([]), np.array([]))


class TestEnhancementHelpsSparse:
    def test_cycle_recovery_improves(self, rng):
        """Fig. 7's claim: a direction too sparse on its own becomes
        identifiable once the perpendicular flow is mirrored in."""
        period, red_frac = 98.0, 0.4
        t0, t1 = 0.0, 1800.0

        def samples(n, phase_red):
            t = np.sort(rng.uniform(t0, t1, n))
            in_red = ((t % period) < red_frac * period) == phase_red
            v = np.where(in_red, 1.0, 9.0) + rng.normal(0, 0.8, n)
            return t, v

        # primary: very sparse; perpendicular: opposite phase, denser
        tp, vp = samples(25, True)
        tq, vq = samples(80, False)
        t, v = enhance_samples(tp, vp, tq, vq)
        assert t.size > tp.size
        est = cycle_from_samples(t, v, t0, t1, enhanced=True)
        assert est.enhanced
        assert est.cycle_s == pytest.approx(period, abs=2.0)
