"""Fig. 12 — continuous monitoring of the cycle length.

The paper plots the cycle re-estimated every 5 minutes for three days:
stable plateaus per plan, obvious outliers, and repeated daily
peak/off-peak switches.  We regenerate one simulated day on a
pre-programmed downtown light (Table II row 1), plot-as-text the
series, repair outliers, detect the plan switches, and show the
day-over-day historical correction on a second day.
"""

import numpy as np
import pytest

from conftest import banner
from repro.core.monitor import (
    HistoricalProfile,
    detect_plan_changes,
    monitor_cycle,
    repair_outliers,
)
from repro.matching import match_trace, partition_by_light
from repro.trace import TraceGenerator


@pytest.fixture(scope="module")
def monitored_light(shenzhen):
    """Intersection 0 (pre-programmed) simulated 05:00–12:00, spanning
    the 07:00 and 10:00 plan switches."""
    sim = shenzhen.simulation()
    # restrict to intersection 0's approaches to keep this bench fast
    sim.rate_per_segment = {
        sid: r for sid, r in sim.rate_per_segment.items()
        if shenzhen.net.segments[sid].to_id == 0
    }
    res = sim.run(5 * 3600.0, 12 * 3600.0, seed=99)
    trace = TraceGenerator(shenzhen.net).generate(res, rng=np.random.default_rng(4))
    parts = partition_by_light(match_trace(trace, shenzhen.net), shenzhen.net)
    return parts[(0, "NS")]


def sparkline(values, lo, hi):
    glyphs = " .:-=+*#%@"
    out = []
    for v in values:
        if np.isnan(v):
            out.append("?")
        else:
            k = int(np.clip((v - lo) / max(hi - lo, 1e-9) * (len(glyphs) - 1), 0, len(glyphs) - 1))
            out.append(glyphs[k])
    return "".join(out)


def test_fig12_continuous_monitoring(benchmark, shenzhen, monitored_light):
    p = monitored_light
    series = benchmark.pedantic(
        monitor_cycle, args=({p.key: p}, 5 * 3600.0, 12 * 3600.0),
        kwargs=dict(every_s=300.0, window_s=1800.0),
        rounds=1, iterations=1,
    )[p.key]

    banner("Fig. 12 — 5-minute cycle monitoring across plan switches")
    off = shenzhen.truth_at(0, "NS", 6 * 3600.0).cycle_s
    peak = shenzhen.truth_at(0, "NS", 8 * 3600.0).cycle_s
    print(f"  ground truth: off-peak {off:.0f} s, peak {peak:.0f} s; "
          f"switches at 07:00 and 10:00")
    print(f"  estimates: {len(series)} windows, "
          f"valid {100 * series.valid_fraction():.0f}%")
    print(f"  raw      [{sparkline(series.cycle_s, off - 10, peak + 10)}]")

    repaired = repair_outliers(series)
    print(f"  repaired [{sparkline(repaired.cycle_s, off - 10, peak + 10)}]")

    changes = detect_plan_changes(repaired)
    for ch in changes:
        hh = ch.at_time / 3600.0
        print(f"  detected plan change at {hh:05.2f} h: "
              f"{ch.old_cycle_s:.0f} s -> {ch.new_cycle_s:.0f} s")
    assert changes, "the 07:00 peak switch must be detected"
    onsets = [ch.at_time for ch in changes]
    assert min(abs(t - 7 * 3600.0) for t in onsets) <= 2400.0, \
        "switch onset must be located within the monitoring latency"

    # historical correction: same light, same time-of-day expectation
    hist = HistoricalProfile([repaired])
    wild_estimate = 2.0 * off
    corrected = hist.correct(6 * 3600.0 + 900.0, wild_estimate)
    print(f"  historical correction: {wild_estimate:.0f} s -> {corrected:.0f} s "
          f"(expected ~{off:.0f} s)")
    assert abs(corrected - off) <= 10.0
