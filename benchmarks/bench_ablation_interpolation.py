"""Ablation — interpolation kind for §V.A regularization.

The paper chooses spline interpolation "to obtain a smoother signal";
this bench quantifies the choice against linear and zero-order-hold on
the cycle-identification task (DESIGN.md ablation #1).
"""

import numpy as np
import pytest

from conftest import banner
from repro.core import PipelineConfig, identify_cycles
from repro.core.cycle import CycleConfig
from repro.trace.store import PartitionStore

KINDS = ("spline", "linear", "previous")
TIMES = tuple(npeals for npeals in np.arange(3600.0, 7200.0 + 1, 600.0))


def _config(kind):
    """The cycle stage with the 150 m cut, no mirror and no stop-end comb."""
    return PipelineConfig(
        use_enhancement=False, cycle=CycleConfig(kind=kind, stop_end_weight=0.0)
    )


def test_ablation_interpolation_kind(benchmark, small_city, small_city_data):
    _, partitions = small_city_data
    store = PartitionStore.from_partitions(partitions)

    banner("Ablation — interpolation kind (spline vs linear vs hold)")
    hits = {}
    for kind in KINDS:
        errs = []
        for at in TIMES:
            cycles, _, _ = identify_cycles(store, at, config=_config(kind))
            errs.extend(
                abs(cycles[key].cycle_s - 98.0) if key in cycles else np.inf
                for key in store
            )
        errs = np.array(errs)
        hits[kind] = float((errs <= 3.0).mean())
        print(f"  {kind:<10} windows {errs.size}, within 3 s: "
              f"{100 * hits[kind]:.0f}%, median err "
              f"{np.median(errs[np.isfinite(errs)]):.2f} s")

    print("\n  paper's choice (spline) must be competitive with alternatives")
    assert hits["spline"] >= max(hits.values()) - 0.15

    key = max(partitions, key=lambda k: len(partitions[k]))
    benchmark(identify_cycles, store, 7200.0, config=_config("spline"), keys=[key])
