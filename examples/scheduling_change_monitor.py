#!/usr/bin/env python
"""Continuous monitoring of a pre-programmed traffic light (§VII).

A downtown light switches between off-peak and peak plans during the
morning.  The monitor re-estimates the cycle every five minutes from
the rolling taxi-trace window, repairs outliers, detects the plan
switches, and applies day-over-day historical correction — the Fig. 12
workflow.

Run:  python examples/scheduling_change_monitor.py
"""

import numpy as np

from repro.core.monitor import (
    HistoricalProfile,
    detect_plan_changes,
    monitor_cycle,
    repair_outliers,
)
from repro.matching import match_trace, partition_by_light
from repro.scenario import shenzhen_scenario
from repro.trace import TraceGenerator


def sparkline(values, lo, hi):
    glyphs = " .:-=+*#%@"
    chars = []
    for v in values:
        if np.isnan(v):
            chars.append("?")
        else:
            k = int(np.clip((v - lo) / (hi - lo) * (len(glyphs) - 1), 0, len(glyphs) - 1))
            chars.append(glyphs[k])
    return "".join(chars)


def main() -> None:
    scn = shenzhen_scenario()
    # ShenNan x WenJin (Table II row 1) runs peak plans 07:00-10:00
    target = 0
    off = scn.truth_at(target, "NS", 5 * 3600.0)
    peak = scn.truth_at(target, "NS", 8 * 3600.0)
    print(f"monitored light: {scn.net.intersections[target].name} (NS group)")
    print(f"ground truth: off-peak cycle {off.cycle_s:.0f} s, "
          f"peak cycle {peak.cycle_s:.0f} s, switches 07:00 / 10:00\n")

    sim = scn.simulation()
    sim.rate_per_segment = {
        sid: r for sid, r in sim.rate_per_segment.items()
        if scn.net.segments[sid].to_id == target
    }
    print("simulating 05:00-12:00 ...")
    res = sim.run(5 * 3600.0, 12 * 3600.0, seed=99)
    trace = TraceGenerator(scn.net).generate(res, rng=np.random.default_rng(4))
    parts = partition_by_light(match_trace(trace, scn.net), scn.net)
    p = parts[(target, "NS")]

    series = monitor_cycle(
        {p.key: p}, 5 * 3600.0, 12 * 3600.0, every_s=300.0, window_s=1800.0
    )[p.key]
    repaired = repair_outliers(series)
    lo, hi = off.cycle_s - 10, peak.cycle_s + 10
    print(f"cycle estimates every 5 min ({len(series)} windows, "
          f"{100 * series.valid_fraction():.0f}% valid):")
    print(f"  raw      [{sparkline(series.cycle_s, lo, hi)}]")
    print(f"  repaired [{sparkline(repaired.cycle_s, lo, hi)}]")

    print("\ndetected scheduling changes:")
    for ch in detect_plan_changes(repaired):
        print(f"  {ch.at_time / 3600:05.2f} h: {ch.old_cycle_s:.0f} s "
              f"-> {ch.new_cycle_s:.0f} s")

    hist = HistoricalProfile([repaired])
    wild = 2 * off.cycle_s
    print(f"\nhistorical correction of a wild estimate at 06:15: "
          f"{wild:.0f} s -> {hist.correct(6.25 * 3600.0, wild):.0f} s")


if __name__ == "__main__":
    main()
