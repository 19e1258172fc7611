"""Fast-tier tests for the identifiability-frontier eval (repro.eval.frontier).

A tiny two-point sweep (the same claims the slow bench pins at full
scale): the ``alpha = 0`` endpoint must match the fixed-plan pipeline
bit-for-bit and the ``alpha = 1`` endpoint must be measurably worse.
Backend parity on these cities lives in ``tests/test_batch_parity.py``.
"""

import json

import pytest

from repro.eval.frontier import (
    FrontierPoint,
    FrontierResult,
    FrontierSpec,
    _partitions_bitwise_equal,
    run_frontier,
)

#: Small enough for the fast tier (~3 s), large enough that both sweep
#: endpoints produce estimates for every light.
TINY = dict(
    alphas=(0.0, 1.0),
    kind="gap",
    n_intersections=2,
    horizon_s=5400.0,
    seed=0,
    eval_start_s=2700.0,
    eval_every_s=2700.0,
    monitor_every_s=600.0,
)


@pytest.fixture(scope="module")
def tiny_result():
    spec = FrontierSpec(**TINY)
    return run_frontier(spec)


class TestFrontierSweep:
    def test_fixed_plan_anchor_is_bitwise(self, tiny_result):
        assert tiny_result.fixed_plan_bitwise_match is True

    def test_degradation_direction(self, tiny_result):
        """Full responsiveness must erode cycle identifiability."""
        assert tiny_result.degradation_monotone()
        pts = sorted(tiny_result.points, key=lambda p: p.alpha)
        assert pts[0].alpha == 0.0 and pts[-1].alpha == 1.0
        assert pts[-1].cycle_mae_s > pts[0].cycle_mae_s

    def test_points_are_populated(self, tiny_result):
        for p in tiny_result.points:
            assert p.n_lights == 2 * TINY["n_intersections"]
            assert p.n_estimates > 0
            assert p.cycle_mae_s >= 0.0
            assert p.cycle_p90_s >= p.cycle_mae_s * 0.0  # finite, non-negative
            assert 0.0 <= p.miss_rate <= 1.0

    def test_to_dict_json_round_trip(self, tiny_result):
        d = tiny_result.to_dict()
        assert d["fixed_plan_bitwise_match"] is True
        assert d["degradation_monotone"] is True
        assert [p["alpha"] for p in d["points"]] == [0.0, 1.0]
        assert json.loads(tiny_result.to_json()) == json.loads(
            json.dumps(d, sort_keys=True)
        )

    def test_summary_mentions_anchor_and_alphas(self, tiny_result):
        text = tiny_result.summary()
        assert "fixed-plan (alpha=0) bitwise anchor: MATCH" in text
        assert "kind=gap" in text
        assert "0.00" in text and "1.00" in text


class TestAlphaZeroBitwise:
    def test_adaptive_city_at_alpha_zero_matches_fixed(self):
        """The scenario builders themselves, not just the sweep wrapper:
        an ``alpha = 0`` adaptive city emits the exact bytes of the
        pre-existing fixed-plan city."""
        from repro.scenario import (
            adaptive_synthetic_lights,
            synthetic_lights,
            synthetic_partitions,
        )

        adaptive = synthetic_partitions(
            adaptive_synthetic_lights(2, alpha=0.0, kind="fuzzy", seed=4),
            0.0, 3600.0, seed=4,
        )
        fixed = synthetic_partitions(
            synthetic_lights(2, seed=4), 0.0, 3600.0, seed=4
        )
        assert _partitions_bitwise_equal(adaptive, fixed)


class TestFrontierSpecValidation:
    def test_defaults_are_valid(self):
        spec = FrontierSpec()
        assert spec.alphas[0] == 0.0
        assert spec.switch_at_s == pytest.approx(spec.horizon_s * 0.5)
        times = spec.eval_times()
        assert times[0] == pytest.approx(spec.eval_start_s)
        assert times[-1] <= spec.horizon_s + 1e-6

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            FrontierSpec(alphas=(0.0, 1.5))
        with pytest.raises(ValueError, match="alphas"):
            FrontierSpec(alphas=())

    def test_rejects_bad_geometry_and_windows(self):
        with pytest.raises(ValueError, match="n_intersections"):
            FrontierSpec(n_intersections=0)
        with pytest.raises(ValueError, match="eval_start_s"):
            FrontierSpec(eval_start_s=99999.0)
        with pytest.raises(ValueError, match="switch_fraction"):
            FrontierSpec(switch_fraction=1.0)


class TestFrontierCli:
    def test_cli_sweep_writes_json(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "frontier.json"
        rc = main([
            "frontier", "--kind", "gap", "--alphas", "0", "1",
            "--intersections", "2", "--horizon", "5400",
            "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["fixed_plan_bitwise_match"] is True
        assert payload["degradation_monotone"] is True
        assert len(payload["points"]) == 2


def test_frontier_point_fields_serialize():
    """FrontierPoint/FrontierResult stay plain-JSON representable."""
    p = FrontierPoint(
        alpha=0.5, cycle_mae_s=1.0, cycle_p90_s=2.0, n_estimates=4,
        n_failures=0, false_alarms=1,
        false_alarms_per_light_hour=0.25, miss_rate=0.0, mean_lag_s=150.0,
        n_lights=4,
    )
    result = FrontierResult(
        spec=FrontierSpec(), points=(p,), fixed_plan_bitwise_match=None
    )
    d = result.to_dict()
    assert d["fixed_plan_bitwise_match"] is None
    assert "fixed-plan" not in result.summary()
    json.dumps(d)
