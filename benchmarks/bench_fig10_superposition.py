"""Fig. 10 — data superposition: merging cycles into one.

The paper's example: cycle 98 s (39 red + 59 green), three consecutive
cycles of sparse taxi reports are folded modulo the cycle; the red and
green pattern only becomes visible after superposition.  We quantify
that: the folded profile's red/green speed contrast must exceed the
unfolded windows' contrast, and grows with the number of folded cycles.
"""

import numpy as np
import pytest

from conftest import banner, window_samples
from repro.core.superposition import cycle_profile, fold_samples

CYCLE = 98.0
RED = 39.0


def contrast(profile, g2r_in_cycle, red_s):
    """Mean green speed minus mean red speed of a folded profile."""
    idx = np.arange(profile.size)
    in_red = ((idx - g2r_in_cycle) % CYCLE) < red_s
    if in_red.all() or (~in_red).any() is False:
        return 0.0
    return float(np.nanmean(profile[~in_red]) - np.nanmean(profile[in_red]))


def test_fig10_superposition_contrast(benchmark, small_city, small_city_data):
    _, partitions = small_city_data
    key = max(partitions, key=lambda k: len(partitions[k]))
    p = partitions[key]
    gt = small_city.truth_at(*key, 7200.0)

    banner(f"Fig. 10 — superposition (light {key}, cycle 98 = 39 red + 59 green)")
    t1 = 7200.0
    contrasts, coverage = {}, {}
    for n_cycles in (3, 9, 18):
        t0 = t1 - n_cycles * CYCLE
        t, v = window_samples(p, t0, t1, 150.0)
        profile = cycle_profile(t, v, CYCLE, t0)
        # coverage: in-cycle seconds directly observed (before the
        # circular interpolation fills the gaps)
        filled = np.unique(np.minimum(np.mod(t - t0, CYCLE).astype(int), 97)).size
        coverage[n_cycles] = filled / 98.0
        g2r = (gt.offset_s - t0) % CYCLE
        c = contrast(profile, g2r, gt.red_s)
        contrasts[n_cycles] = c
        print(f"  {n_cycles:>2} cycles folded: {t.size:>4} samples, "
              f"coverage {100 * coverage[n_cycles]:.0f}% of the cycle, "
              f"red/green contrast {c:.1f} km/h")
    print("  paper: the red/green pattern only emerges after superposition")
    assert contrasts[18] > 2.0, "folded profile must reveal the red/green pattern"
    # superposition's mechanism: folding more cycles observes more of
    # the cycle directly (contrast per-instance is noisy; coverage is not)
    assert coverage[18] > coverage[9] > coverage[3]

    t, v = window_samples(p, 0.0, 7200.0, 150.0)
    benchmark(fold_samples, t, v, CYCLE)
