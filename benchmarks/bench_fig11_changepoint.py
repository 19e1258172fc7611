"""Fig. 11 — signal change via the sliding-window minimum.

The paper's example: cycle 98 s, red 39 s, green 59 s; the moving
average of the superposed speed with a red-length window bottoms out at
the red window, and the detected green→red change lands at 44 s against
a ground truth of 41 s (3 s error).  We regenerate the detection for
every light of the test city and report the change-time error
distribution, plus the fused (stop-end) variant.
"""

import numpy as np
import pytest

from conftest import banner, window_samples
from repro._util import circular_diff
from repro.core import identify_light, PipelineConfig
from repro.core.changepoint import find_signal_change
from repro.core.superposition import cycle_profile


def test_fig11_change_point(benchmark, small_city, small_city_data):
    _, partitions = small_city_data

    banner("Fig. 11 — signal-change identification")
    print(f"  {'light':<10} {'GT r2g':>8} {'est r2g':>8} {'err':>6}")
    errs_literal, errs_fused = [], []
    for key in sorted(partitions):
        iid, app = key
        gt = small_city.truth_at(iid, app, 7200.0)
        p = partitions[key]
        anchor = 7200.0 - 1200.0
        t, v = window_samples(p, anchor, 7200.0, 150.0)
        if t.size < 10:
            continue
        profile = cycle_profile(t, v, gt.cycle_s, anchor)
        # paper-literal: speed window only
        lit = find_signal_change(profile, gt.red_s, fusion_weight=0.0)
        gt_r2g = (gt.offset_s + gt.red_s - anchor) % gt.cycle_s
        e_lit = float(circular_diff(lit.red_to_green_s, gt_r2g, gt.cycle_s))
        errs_literal.append(abs(e_lit))
        # full pipeline (fusion + refinement), absolute comparison
        perp = partitions.get((iid, "EW" if app == "NS" else "NS"))
        est = identify_light(p, 7200.0, perpendicular=perp, config=PipelineConfig())
        e_fus = float(circular_diff(
            est.schedule.offset_s + est.schedule.red_s,
            gt.offset_s + gt.red_s,
            gt.cycle_s,
        ))
        errs_fused.append(abs(e_fus))
        print(f"  {str(key):<10} {gt_r2g:>7.1f}s "
              f"{est.schedule.red_to_green_in_cycle:>7.1f}s {e_fus:>+5.1f}s")

    print(f"\n  paper example error: 3 s (44 s detected vs 41 s truth)")
    print(f"  paper-literal sliding window: median {np.median(errs_literal):.1f} s")
    print(f"  fused (stop-end) pipeline:    median {np.median(errs_fused):.1f} s")
    assert np.median(errs_fused) <= 6.0, "80%-within-6s class accuracy expected"

    key = max(partitions, key=lambda k: len(partitions[k]))
    p = partitions[key]
    anchor = 7200.0 - 1200.0
    t, v = window_samples(p, anchor, 7200.0, 150.0)
    gt = small_city.truth_at(*key, 7200.0)
    profile = cycle_profile(t, v, gt.cycle_s, anchor)
    benchmark(find_signal_change, profile, gt.red_s)
