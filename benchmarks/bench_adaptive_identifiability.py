"""Adaptive identifiability-frontier bench — the eval beyond the paper.

Sweeps the responsiveness knob ``alpha`` of the adaptive synthetic
scenarios (0 = fixed plan, 1 = fully demand-driven) for each adaptive
controller kind and runs the full identify/monitor pipeline at every
point (``repro.eval.frontier``), pinning two claims per kind:

* **fixed-plan anchor** — the ``alpha = 0`` city and its estimates are
  bit-for-bit identical to the pre-existing fixed-plan pipeline: the
  adaptive machinery is a strict superset of the paper's workload;
* **degradation direction** — the cycle-estimate error at ``alpha = 1``
  strictly exceeds the ``alpha = 0`` error: adaptivity measurably
  erodes identifiability (the monotone frontier the eval quantifies).

The full curves (error, false-alarm rate, miss rate, monitor lag per
``alpha``) are printed and optionally written as a JSON artifact.

Knobs: ``REPRO_FRONTIER_BENCH_KINDS`` (comma-separated subset of
``actuated,gap,fuzzy``), ``REPRO_FRONTIER_BENCH_INTERSECTIONS``
overrides the city size, and ``REPRO_FRONTIER_BENCH_JSON`` writes the
curves as a JSON artifact (used by the non-blocking CI slow job).
"""

import json
import os
import time

from conftest import banner
from repro.eval.frontier import FrontierSpec, run_frontier
from repro.lights.controller import ADAPTIVE_KINDS


def test_adaptive_identifiability_frontier():
    kinds_env = os.environ.get("REPRO_FRONTIER_BENCH_KINDS", "")
    kinds = tuple(k for k in kinds_env.split(",") if k) or ADAPTIVE_KINDS
    n_intersections = int(os.environ.get("REPRO_FRONTIER_BENCH_INTERSECTIONS", "4"))

    payload = {}
    for kind in kinds:
        spec = FrontierSpec(kind=kind, n_intersections=n_intersections)
        banner(
            f"identifiability frontier: kind={kind} "
            f"({2 * n_intersections} lights, alphas={list(spec.alphas)})"
        )
        t0 = time.perf_counter()
        result = run_frontier(spec)
        elapsed = time.perf_counter() - t0
        print(result.summary())
        print(f"sweep wall time: {elapsed:.1f} s")

        assert result.fixed_plan_bitwise_match is True, (
            f"kind={kind}: alpha=0 diverged bit-for-bit from the "
            "fixed-plan pipeline"
        )
        assert result.degradation_monotone(), (
            f"kind={kind}: cycle error did not grow from alpha=0 to alpha=1"
        )

        entry = result.to_dict()
        entry["wall_time_s"] = elapsed
        payload[kind] = entry

    out = os.environ.get("REPRO_FRONTIER_BENCH_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
