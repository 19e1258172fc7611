"""Ablation — interpolation kind for §V.A regularization.

The paper chooses spline interpolation "to obtain a smoother signal";
this bench quantifies the choice against linear and zero-order-hold on
the cycle-identification task (DESIGN.md ablation #1).
"""

import numpy as np
import pytest

from conftest import banner, window_samples
from repro.core.cycle import CycleConfig, identify_cycle_from_samples
from repro.core.signal_types import InsufficientDataError

KINDS = ("spline", "linear", "previous")
TIMES = tuple(npeals for npeals in np.arange(3600.0, 7200.0 + 1, 600.0))


def test_ablation_interpolation_kind(benchmark, small_city, small_city_data):
    _, partitions = small_city_data

    banner("Ablation — interpolation kind (spline vs linear vs hold)")
    hits = {}
    for kind in KINDS:
        cfg = CycleConfig(kind=kind)
        errs = []
        for key in sorted(partitions):
            p = partitions[key]
            for at in TIMES:
                t, v = window_samples(p, at - 1800.0, at, 150.0)
                try:
                    est = identify_cycle_from_samples(t, v, at - 1800.0, at, cfg)
                    errs.append(abs(est.cycle_s - 98.0))
                except InsufficientDataError:
                    errs.append(np.inf)
        errs = np.array(errs)
        hits[kind] = float((errs <= 3.0).mean())
        print(f"  {kind:<10} windows {errs.size}, within 3 s: "
              f"{100 * hits[kind]:.0f}%, median err "
              f"{np.median(errs[np.isfinite(errs)]):.2f} s")

    print("\n  paper's choice (spline) must be competitive with alternatives")
    assert hits["spline"] >= max(hits.values()) - 0.15

    key = max(partitions, key=lambda k: len(partitions[k]))
    t, v = window_samples(partitions[key], 5400.0, 7200.0, 150.0)
    benchmark(identify_cycle_from_samples, t, v, 5400.0, 7200.0, CycleConfig())
