"""Result types and errors shared by the identification algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..lights.schedule import LightSchedule

__all__ = [
    "InsufficientDataError",
    "CycleEstimate",
    "RedEstimate",
    "ChangePointEstimate",
    "ScheduleEstimate",
]


class InsufficientDataError(ValueError):
    """Raised when a window holds too few samples to run an algorithm.

    The paper's traces are unbalanced (Table II: 25× rate differences);
    idle windows are expected and callers treat this error as "no
    estimate now", not as a bug.
    """


@dataclass(frozen=True)
class CycleEstimate:
    """Output of cycle-length identification (§V).

    Attributes
    ----------
    cycle_s:
        Estimated cycle length, seconds.
    peak_index:
        Winning DFT bin (cycles per window).
    peak_magnitude:
        Magnitude of the winning bin.
    quality:
        How clearly the window shows the cycle; larger is cleaner.  The
        cycle stage (``_select_cycle``, run for identification and for
        the §VII monitor) stores the winner's epoch-folding z-score,
        which includes ``stop_end_weight`` times the stop-end comb
        z-score when the comb is on (identification's default; the
        monitor runs without it).  Only when that z-score is not finite
        does it store the winning DFT peak's magnitude over the median
        in-band magnitude, a different scale.  Nothing in ``repro``
        weighs estimates by ``quality``: it is only stored and printed.
    n_samples:
        Raw (pre-interpolation) sample count in the window.
    enhanced:
        Whether intersection-based enhancement supplied extra samples.
    """

    cycle_s: float
    peak_index: int
    peak_magnitude: float
    quality: float
    n_samples: int
    enhanced: bool = False


@dataclass(frozen=True)
class RedEstimate:
    """Output of red-light duration identification (§VI.A).

    ``bin_edges``/``bin_counts`` expose the stop-duration histogram so
    evaluation code can plot the Fig. 9 panels.
    """

    red_s: float
    border_bin: int
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    n_stops_used: int
    n_stops_rejected: int


@dataclass(frozen=True)
class ChangePointEstimate:
    """Output of signal-change identification (§VI.C).

    Times are *in-cycle* seconds relative to the fold anchor.
    """

    green_to_red_s: float
    red_to_green_s: float
    moving_average: np.ndarray
    profile: np.ndarray


@dataclass(frozen=True)
class ScheduleEstimate:
    """Full identified scheduling of one light at one time point.

    ``schedule`` packages (cycle, red, offset) as an absolute-time
    :class:`~repro.lights.schedule.LightSchedule`, directly comparable
    with ground truth.
    """

    intersection_id: int
    approach: str
    at_time: float
    schedule: LightSchedule
    cycle: CycleEstimate
    red: RedEstimate
    change: ChangePointEstimate

    @property
    def cycle_s(self) -> float:
        return self.schedule.cycle_s

    @property
    def red_s(self) -> float:
        return self.schedule.red_s

    @property
    def green_s(self) -> float:
        return self.schedule.green_s

    def row(self) -> str:
        """One printable summary line."""
        return (
            f"light=({self.intersection_id},{self.approach}) t={self.at_time:.0f} "
            f"cycle={self.cycle_s:.1f}s red={self.red_s:.1f}s green={self.green_s:.1f}s "
            f"g2r@{self.schedule.green_to_red_in_cycle:.1f}s quality={self.cycle.quality:.1f}"
        )
