"""Per-taxi reporting behaviour.

Each Shenzhen taxi uploads at its *own fixed frequency* — Fig. 2(b)
shows distinct peaks at 15 s, 30 s and 60 s, a ~20 s mean, and a long
tail the paper attributes to packet loss and network delay.  This
module reproduces that: a taxi draws an interval from the empirical
mixture once, then reports on that grid (with jitter), with reports
occasionally lost.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from .._util import RngLike, as_rng, check_in_range, check_nonnegative, check_positive

__all__ = [
    "ReportingPolicy",
    "draw_report_grid",
    "jitter_report_times",
    "sample_report_times",
]

#: Empirical update-interval mixture (seconds → probability), chosen so
#: the generated traces land near the paper's *measured* mean update
#: interval of 20.41 s with visible 15/30/60 s peaks.  Note the measured
#: mean is over consecutive-report pairs, which weights a taxi by its
#: report count (∝ 1/interval): the pair-weighted mean of this mixture
#: is ≈ 19.6 s even though its plain mean is ≈ 28.6 s.
DEFAULT_INTERVAL_MIXTURE: Tuple[Tuple[float, float], ...] = (
    (5.0, 0.02),
    (10.0, 0.10),
    (15.0, 0.33),
    (30.0, 0.35),
    (60.0, 0.20),
)


@dataclass(frozen=True)
class ReportingPolicy:
    """Fleet-wide reporting parameters.

    Parameters
    ----------
    interval_mixture:
        ``((interval_s, probability), ...)``; probabilities must sum
        to 1.
    packet_loss_prob:
        Probability each report is silently dropped in the cellular
        uplink (creates the Fig. 2(b) long tail: gaps of 2×, 3×… the
        base interval).
    jitter_sd_s:
        Gaussian jitter on each report's timestamp (network delay).
    """

    interval_mixture: Tuple[Tuple[float, float], ...] = DEFAULT_INTERVAL_MIXTURE
    packet_loss_prob: float = 0.05
    jitter_sd_s: float = 0.5

    def __post_init__(self) -> None:
        total = sum(p for _, p in self.interval_mixture)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"interval mixture probabilities sum to {total}, expected 1")
        for iv, p in self.interval_mixture:
            check_positive("interval", iv)
            check_in_range("mixture probability", p, 0.0, 1.0)
        check_in_range("packet_loss_prob", self.packet_loss_prob, 0.0, 1.0)
        check_nonnegative("jitter_sd_s", self.jitter_sd_s)

    @property
    def mean_interval_s(self) -> float:
        """Mean of the base interval mixture (before loss)."""
        return float(sum(iv * p for iv, p in self.interval_mixture))

    @cached_property
    def _interval_cdf(self) -> Tuple[List[float], List[float]]:
        """The mixture's intervals and the CDF ``Generator.choice`` builds
        from its probabilities."""
        cdf = np.array([p for _, p in self.interval_mixture], dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        return [float(iv) for iv, _ in self.interval_mixture], cdf.tolist()

    def sample_interval(self, rng: RngLike = None) -> float:
        """Draw one taxi's fixed update interval.

        Bit for bit ``rng.choice(intervals, p=probs)``: one uniform
        searched in the mixture's CDF, without ``choice`` validating
        ``p`` again on every call.
        """
        rng = as_rng(rng)
        intervals, cdf = self._interval_cdf
        return intervals[bisect_right(cdf, rng.random())]


def sample_report_times(
    policy: ReportingPolicy,
    interval_s: float,
    t_start: float,
    t_end: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Report timestamps for one taxi observed on ``[t_start, t_end]``.

    The taxi's report grid has a uniformly-random phase (taxis don't
    synchronize), each report is dropped with ``packet_loss_prob`` and
    jittered by network delay.  Returns a sorted array (possibly empty).
    """
    rng = as_rng(rng)
    ticks, jitter = draw_report_grid(policy, interval_s, t_start, t_end, rng)
    if jitter is None:
        return ticks
    return np.sort(jitter_report_times(ticks, jitter, t_start, t_end))


def draw_report_grid(
    policy: ReportingPolicy,
    interval_s: float,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The random draws of :func:`sample_report_times`.

    Returns the grid ticks that survive packet loss, in ascending order,
    and their network-delay jitter, or ``None`` when the policy has no
    jitter or no tick survives.  Unjittered ticks are final report
    times as they stand.
    """
    if t_end < t_start:
        return np.empty(0), None
    phase = rng.uniform(0.0, interval_s)
    ticks = np.arange(t_start + phase, t_end + 1e-9, interval_s)
    if ticks.size == 0:
        return ticks, None
    ticks = ticks[rng.uniform(size=ticks.size) >= policy.packet_loss_prob]
    if policy.jitter_sd_s > 0 and ticks.size:
        return ticks, rng.normal(0.0, policy.jitter_sd_s, size=ticks.size)
    return ticks, None


def jitter_report_times(
    ticks: np.ndarray,
    jitter: np.ndarray,
    t_start: npt.ArrayLike,
    t_end: npt.ArrayLike,
) -> np.ndarray:
    """Jittered ticks clipped into the observed span, before sorting.

    Elementwise, so many taxis' ticks can be jittered at once with
    per-tick ``t_start``/``t_end`` arrays.
    """
    return np.clip(ticks + jitter, t_start, t_end)
