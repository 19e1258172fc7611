"""Scheduling-change identification (§VII, Fig. 12).

Pre-programmed lights switch plans a few times a day (peak vs off-peak);
the paper's system notices by re-estimating the **cycle length every
5 minutes** — with the pipeline's own cycle stage,
:func:`repro.core.batch.identify_cycles`, under :data:`MONITOR_CONFIG`
— and watching the series:

* isolated wild values are DFT artifacts → repaired by a running median;
* a *sustained* shift to a new level is a real plan change → reported
  with its onset time;
* the same light behaves alike at the same time of day across days →
  day-over-day history corrects the current estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._util import check_positive
from ..matching.partition import LightKey, LightPartition
from ..trace.store import PartitionStore
from .batch import identify_cycles
from .cycle import CycleConfig
from .pipeline import PipelineConfig
from .signal_types import InsufficientDataError

__all__ = [
    "MONITOR_CONFIG",
    "MonitorSeries",
    "PlanChange",
    "monitor_cycle",
    "repair_outliers",
    "detect_plan_changes",
    "HistoricalProfile",
]


@dataclass(frozen=True)
class MonitorSeries:
    """Periodic cycle-length estimates for one light.

    ``cycle_s`` is NaN where the window was too sparse.  ``quality`` is
    each window's ``CycleEstimate.quality`` (see there): the winner's
    epoch-folding z-score (the monitor runs without the stop-end comb),
    and the DFT peak over the median in-band magnitude only where that
    z-score is not finite.  It is recorded, not used: nothing
    downstream weighs windows by it.  ``n_errors`` counts windows that
    crashed with something *other* than data poverty (degenerate
    inputs, numerical pathologies) — those windows are NaN too, but a
    nonzero count flags a light worth investigating.
    """

    t: np.ndarray
    cycle_s: np.ndarray
    quality: np.ndarray
    n_errors: int = 0

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def valid_fraction(self) -> float:
        """Share of windows that produced an estimate."""
        return float(np.mean(~np.isnan(self.cycle_s))) if len(self) else float("nan")

    @classmethod
    def from_samples(
        cls,
        t: Sequence[float],
        cycle_s: Sequence[float],
        quality: Sequence[float],
        *,
        n_errors: int = 0,
    ) -> "MonitorSeries":
        """Build a series from accumulated ``(t, cycle, quality)`` samples.

        The online monitor (:mod:`repro.stream`) appends one sample per
        ingest refresh instead of sweeping a fixed grid like
        :func:`monitor_cycle`; this constructor time-sorts those samples
        into the columnar form :func:`repair_outliers` /
        :func:`detect_plan_changes` consume.  A failed refresh should be
        recorded as a NaN cycle so gaps stay visible.
        """
        ta = np.asarray(t, dtype=np.float64)
        ca = np.asarray(cycle_s, dtype=np.float64)
        qa = np.asarray(quality, dtype=np.float64)
        if not (ta.shape == ca.shape == qa.shape) or ta.ndim != 1:
            raise ValueError(
                f"t/cycle_s/quality must be equal-length 1-D, got shapes "
                f"{ta.shape}/{ca.shape}/{qa.shape}"
            )
        order = np.argsort(ta, kind="stable")
        return cls(
            t=ta[order], cycle_s=ca[order], quality=qa[order], n_errors=n_errors
        )


@dataclass(frozen=True)
class PlanChange:
    """A detected scheduling change."""

    at_time: float
    old_cycle_s: float
    new_cycle_s: float


#: The monitor's §V sample rule; each call replaces ``window_s``.  Every
#: record in the window feeds the cycle (no distance cut), with no §V.B
#: mirror and no stop-end comb.  Identification's defaults made the
#: monitor worse in a probe that ran both through the same cycle pass
#: (cycle MAE against the truth at each window's end): 3.80 → 6.40 s on
#: Fig. 12's intersection (both approaches) and 3.46 → 7.22 s on the
#: golden-monitor scenario, and α = 0 frontier false alarms 2 → 5 per
#: 16 light-hours.  The 150 m cut alone raised those MAEs to 4.81 and
#: 8.78 s.
MONITOR_CONFIG = PipelineConfig(
    max_sample_dist_m=math.inf,
    use_enhancement=False,
    cycle=CycleConfig(stop_end_weight=0.0),
)


def monitor_cycle(
    partitions: Mapping[LightKey, LightPartition],
    t0: float,
    t1: float,
    *,
    keys: Optional[Sequence[LightKey]] = None,
    every_s: float = 300.0,
    window_s: float = 1800.0,
) -> Dict[LightKey, MonitorSeries]:
    """Estimate each light's cycle every ``every_s`` seconds over ``[t0, t1]``.

    Each estimate at time ``τ`` uses the trailing ``window_s`` of
    records, exactly like the paper's continuous monitoring (5-minute
    re-estimation, Fig. 12): one
    :func:`~repro.core.batch.identify_cycles` call per window for every
    light in ``keys`` (default: all of ``partitions``, a partition
    mapping or a :class:`~repro.trace.store.PartitionStore`), under
    :data:`MONITOR_CONFIG`.  Returns one :class:`MonitorSeries` per
    light.  A light that fails in a window gets NaN there; a failure
    other than expected data poverty also counts in its ``n_errors``.
    """
    check_positive("every_s", every_s)
    check_positive("window_s", window_s)
    store = PartitionStore.from_partitions(partitions)
    keys = sorted(store) if keys is None else sorted(keys)
    config = replace(MONITOR_CONFIG, window_s=window_s)
    times = np.arange(t0 + window_s, t1 + 1e-9, every_s)
    cycles = {key: np.full(times.shape, np.nan) for key in keys}
    quality = {key: np.full(times.shape, np.nan) for key in keys}
    n_errors = dict.fromkeys(keys, 0)
    for i, tau in enumerate(times):
        estimates, failures, _ = identify_cycles(
            store, float(tau), config=config, keys=keys
        )
        for key, est in estimates.items():
            cycles[key][i] = est.cycle_s
            quality[key][i] = est.quality
        for key, failure in failures.items():
            if failure.error_type != InsufficientDataError.__name__:
                n_errors[key] += 1
    return {
        key: MonitorSeries(
            t=times.copy(), cycle_s=cycles[key], quality=quality[key],
            n_errors=n_errors[key],
        )
        for key in keys
    }


def repair_outliers(
    series: MonitorSeries, *, half_width: int = 3, tol_s: float = 8.0
) -> MonitorSeries:
    """Replace isolated outliers with the local running median.

    A sample deviating more than ``tol_s`` from the median of its
    ``2·half_width+1`` neighbourhood (NaNs ignored) is snapped to that
    median.  Genuine plan changes survive because after the change the
    neighbourhood median moves with the new level.

    All windows are sorted in one pass (NaN sorts last, so a window's
    ``m`` valid values lead it), and each median is taken as
    ``np.median`` takes it: the middle value for odd ``m``, the mean
    ``(a + b) / 2`` of the middle two for even ``m``.
    """
    c = series.cycle_s
    n = c.shape[0]
    repaired = c.copy()
    if n >= 2 and half_width >= 1:
        pad = np.full(half_width, np.nan)
        windows = np.sort(
            sliding_window_view(np.concatenate([pad, c, pad]), 2 * half_width + 1),
            axis=1,
        )
        m = np.count_nonzero(~np.isnan(windows), axis=1)
        rows = np.arange(n)
        upper = windows[rows, m // 2]
        lower = windows[rows, np.maximum(m - 1, 0) // 2]
        med = np.where(m % 2 == 1, upper, (lower + upper) / 2.0)
        snap = (m >= 2) & ~np.isnan(c) & (np.abs(c - med) > tol_s)
        repaired[snap] = med[snap]
    return MonitorSeries(
        t=series.t, cycle_s=repaired, quality=series.quality,
        n_errors=series.n_errors,
    )


def detect_plan_changes(
    series: MonitorSeries,
    *,
    tol_s: float = 6.0,
    min_consecutive: int = 3,
) -> List[PlanChange]:
    """Find sustained level shifts in a (repaired) cycle series.

    A change is declared when ``min_consecutive`` consecutive valid
    estimates all sit more than ``tol_s`` from the current level while
    agreeing with each other within ``tol_s``; its onset is the first
    such estimate's time.
    """
    t = series.t
    c = series.cycle_s
    valid = ~np.isnan(c)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return []
    changes: List[PlanChange] = []
    level = float(c[idx[0]])
    i = 1
    while i < idx.size:
        j = idx[i]
        if abs(c[j] - level) <= tol_s:
            # stay on the level; refine it slowly
            level = 0.8 * level + 0.2 * float(c[j])
            i += 1
            continue
        # candidate run of departures
        run = [i]
        k = i + 1
        while k < idx.size and len(run) < min_consecutive:
            jk = idx[k]
            if abs(c[jk] - c[idx[run[0]]]) <= tol_s and abs(c[jk] - level) > tol_s:
                run.append(k)
                k += 1
            else:
                break
        if len(run) >= min_consecutive:
            new_level = float(np.median(c[idx[run]]))
            changes.append(
                PlanChange(
                    at_time=float(t[idx[run[0]]]),
                    old_cycle_s=level,
                    new_cycle_s=new_level,
                )
            )
            level = new_level
            i = run[-1] + 1
        else:
            i += 1  # isolated blip; outlier repair should have caught it
    return changes


class HistoricalProfile:
    """Day-over-day correction of cycle estimates (Fig. 12's insight).

    Build it from several days of monitor series for the same light;
    it learns the median cycle per time-of-day bin and can then
    (a) report the historical expectation at any time of day, and
    (b) correct a fresh estimate that disagrees wildly with history.
    """

    def __init__(
        self,
        day_series: Sequence[MonitorSeries],
        *,
        bin_s: float = 1800.0,
        day_length_s: float = 86_400.0,
    ) -> None:
        check_positive("bin_s", bin_s)
        if day_length_s % bin_s:
            raise ValueError("bin_s must divide the day length")
        self.bin_s = bin_s
        self.day_length_s = day_length_s
        n_bins = int(day_length_s // bin_s)
        buckets: List[List[float]] = [[] for _ in range(n_bins)]
        for series in day_series:
            tod = np.mod(series.t, day_length_s)
            for tau, c in zip(tod, series.cycle_s):
                if not np.isnan(c):
                    buckets[int(tau // bin_s) % n_bins].append(float(c))
        self.median = np.array(
            [np.median(b) if b else np.nan for b in buckets]
        )
        self.support = np.array([len(b) for b in buckets])

    def expectation_at(self, t: float) -> float:
        """Historical median cycle at (the time-of-day of) ``t``."""
        tod = float(t) % self.day_length_s
        return float(self.median[int(tod // self.bin_s)])

    def correct(self, t: float, estimate_s: float, *, tol_s: float = 10.0) -> float:
        """Snap an estimate to history when it disagrees by > ``tol_s``.

        NaN history (never-observed slot) passes the estimate through.
        """
        expect = self.expectation_at(t)
        if np.isnan(expect) or abs(estimate_s - expect) <= tol_s:
            return float(estimate_s)
        return expect
