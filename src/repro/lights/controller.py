"""Traffic-light controllers: the three categories of §III, plus the
adaptive tier the paper never tested.

1. :class:`StaticController` — one fixed schedule, never changes
   (the majority of Shenzhen lights, per the paper's police interview).
2. :class:`PreProgrammedController` — multiple time-of-day plans
   (e.g. peak vs off-peak), switching at fixed seconds-of-day.
3. :class:`ManualController` — a pre-programmed base plus ad-hoc manual
   override windows (police-controlled arterials).  The paper's system
   targets the first two; the manual controller exists so the evaluation
   can show what its traces look like.
4. **Adaptive controllers** (:class:`ActuatedController`,
   :class:`GapActuatedController`, :class:`FuzzyController`) — green
   durations respond to observed demand (queue length, arrival
   headways).  These power the identifiability-frontier evaluation
   (:mod:`repro.eval.frontier`): how demand-responsive can a signal get
   before the §IV–§VII identification pipeline collapses?

A controller answers ``schedule_at(t)`` — the :class:`LightSchedule` in
force at absolute time ``t`` — plus convenience phase queries that
delegate to it.  Adaptive controllers keep this contract *exact* by
realizing a piecewise-fixed timeline: each realized cycle is one
anchored :class:`LightSchedule` segment, decided from demand observed
strictly before the segment starts, so every downstream phase query is
a pure function of the realized history.  Absolute time ``t=0`` is
midnight of simulation day 0; time-of-day is ``t mod 86400``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import check_in_range, check_nonnegative, check_positive
from .schedule import LightSchedule, Phase

__all__ = [
    "SECONDS_PER_DAY",
    "ADAPTIVE_KINDS",
    "LightController",
    "StaticController",
    "PreProgrammedController",
    "ManualController",
    "PlanSwitch",
    "DemandSignal",
    "DemandFn",
    "AdaptiveController",
    "ActuatedController",
    "GapActuatedController",
    "FuzzyController",
]

SECONDS_PER_DAY = 86_400.0

#: The demand-responsive controller kinds (scenario/CLI vocabulary).
ADAPTIVE_KINDS = ("actuated", "gap", "fuzzy")

#: Two realized cycles count as the same plan within this tolerance.
_PLAN_TOL_S = 1e-9


class LightController:
    """Abstract controller interface."""

    def schedule_at(self, t: float) -> LightSchedule:
        """The schedule in force at absolute time ``t``."""
        raise NotImplementedError

    # -- delegating phase helpers --------------------------------------
    def is_red(self, t: float) -> bool:
        """Whether the light is red at absolute time ``t``."""
        return bool(self.schedule_at(t).is_red(t))

    def is_green(self, t: float) -> bool:
        """Whether the light is green at absolute time ``t``."""
        return not self.is_red(t)

    def phase(self, t: float) -> str:
        """Phase constant at absolute time ``t``."""
        return Phase.RED if self.is_red(t) else Phase.GREEN

    def wait_if_arriving(self, t: float) -> float:
        """Remaining red time for an arrival at ``t`` (0 when green)."""
        return self.schedule_at(t).wait_if_arriving(t)

    def next_change(self, t: float) -> Tuple[float, str]:
        """Next signal change strictly after ``t`` according to the
        schedule in force at ``t`` (a plan switch inside the returned
        interval may cut the predicted phase short; adaptive
        controllers' piecewise segments make the prediction exact)."""
        return self.schedule_at(t).next_change(t)

    def plan_switch_times(self, t0: float, t1: float) -> List[float]:
        """Absolute times in ``[t0, t1)`` at which the scheduling *plan*
        changes — the ground truth for §VII's scheduling-change
        identification.  Static lights return ``[]``."""
        return []


@dataclass(frozen=True)
class StaticController(LightController):
    """Category 1: a single schedule forever."""

    schedule: LightSchedule

    def schedule_at(self, t: float) -> LightSchedule:
        return self.schedule


@dataclass(frozen=True)
class PlanSwitch:
    """One time-of-day plan entry: *schedule* applies from
    ``start_second_of_day`` until the next entry's start."""

    start_second_of_day: float
    schedule: LightSchedule

    def __post_init__(self) -> None:
        check_in_range("start_second_of_day", self.start_second_of_day, 0.0, SECONDS_PER_DAY, inclusive=True)


class PreProgrammedController(LightController):
    """Category 2: time-of-day plans repeating every day.

    Parameters
    ----------
    plans:
        Plan entries sorted (or sortable) by ``start_second_of_day``.
        The plan with the latest start wraps around past midnight: if
        the first entry starts at 07:00, times in [00:00, 07:00) use the
        last entry's schedule.
    """

    def __init__(self, plans: Sequence[PlanSwitch]) -> None:
        if not plans:
            raise ValueError("PreProgrammedController requires at least one plan")
        self.plans: List[PlanSwitch] = sorted(plans, key=lambda p: p.start_second_of_day)
        starts = [p.start_second_of_day for p in self.plans]
        if len(set(starts)) != len(starts):
            raise ValueError("plan start times must be distinct")
        self._starts = [float(s) for s in starts]

    def schedule_at(self, t: float) -> LightSchedule:
        tod = float(t) % SECONDS_PER_DAY
        idx = bisect_right(self._starts, tod) - 1
        return self.plans[idx].schedule  # idx == -1 wraps to the last plan

    def plan_switch_times(self, t0: float, t1: float) -> List[float]:
        if len(self.plans) < 2:
            return []
        out: List[float] = []
        day0 = int(np.floor(t0 / SECONDS_PER_DAY))
        day1 = int(np.floor(t1 / SECONDS_PER_DAY))
        for day in range(day0, day1 + 1):
            base = day * SECONDS_PER_DAY
            for p in self.plans:
                abs_t = base + p.start_second_of_day
                if t0 <= abs_t < t1:
                    out.append(abs_t)
        return sorted(out)


class ManualController(LightController):
    """Category 3: pre-programmed base with manual override windows.

    Each override is ``(start, end, schedule)`` in absolute seconds.
    Outside overrides it behaves exactly like its base controller —
    matching the paper's description that manually-controlled lights
    "work similar as pre-programmed traffic lights" when unattended.
    """

    def __init__(
        self,
        base: LightController,
        overrides: Sequence[Tuple[float, float, LightSchedule]] = (),
    ) -> None:
        self.base = base
        self.overrides = sorted(overrides, key=lambda o: o[0])
        for (_s0, e0, _), (s1, _e1, _2) in zip(self.overrides, self.overrides[1:]):
            if s1 < e0:
                raise ValueError("manual override windows must not overlap")
        for s, e, _ in self.overrides:
            if e <= s:
                raise ValueError("override end must be after start")

    def schedule_at(self, t: float) -> LightSchedule:
        for s, e, sched in self.overrides:
            if s <= t < e:
                return sched
        return self.base.schedule_at(t)

    def plan_switch_times(self, t0: float, t1: float) -> List[float]:
        out = set(self.base.plan_switch_times(t0, t1))
        for s, e, _ in self.overrides:
            for edge in (s, e):
                if t0 <= edge < t1:
                    out.add(edge)
        return sorted(out)


# ---------------------------------------------------------------------------
# Category 4: demand-responsive (adaptive) controllers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemandSignal:
    """Demand observed on one approach over a decision window.

    ``queue_len`` is the peak number of queued vehicles in the window;
    ``headway_s`` is the mean arrival headway (``inf`` when fewer than
    two arrivals were seen — an empty approach).
    """

    queue_len: float
    headway_s: float

    def __post_init__(self) -> None:
        check_nonnegative("queue_len", self.queue_len)
        if not self.headway_s > 0.0:
            raise ValueError(f"headway_s must be positive, got {self.headway_s}")


#: Demand source: maps a half-open window ``[t0, t1)`` to the
#: :class:`DemandSignal` observed over it.  Called only for windows that
#: end where the cycle being decided starts.
DemandFn = Callable[[float, float], DemandSignal]


class AdaptiveController(LightController):
    """Base class for demand-responsive control (category 4).

    The controller realizes an *effective* piecewise-fixed timeline,
    one anchored :class:`LightSchedule` segment per signal cycle: cycle
    ``k`` starting at ``s_k`` runs red for the base plan's red duration
    and then green for a demand-dependent duration, so the segment is
    ``LightSchedule(cycle_s=red+green, red_s=red, offset_s=s_k)`` and
    ``s_{k+1} = s_k + red + green``.  The green duration blends the
    base plan with the subclass's demand response::

        green_k = (1 - alpha) * base.green_s + alpha * raw_k

    clipped to ``[min_green_s, max_green_factor * base.green_s]``.
    ``alpha=0`` reproduces the fixed plan **bit-for-bit** (the base
    schedule object is returned directly, no realization happens);
    ``alpha=1`` is fully demand-driven.

    The decision for cycle ``k`` uses demand observed over the previous
    cycle's window ``[s_k - c_{k-1}, s_k)``, and is made at the first
    query at or after ``s_k``.  The window lies in the past, but what a
    demand source has seen of it can still grow after ``s_k``: the
    queueing sim's :class:`~repro.sim.queueing.ApproachDemandRecorder`
    logs an arrival only when the vehicle is admitted to the segment,
    stamped with its earlier arrival time, and admission can be blocked
    for a few seconds.  So with live feedback the realized timeline
    depends on when the controller is first queried after each cycle
    starts; the sim queries it on every step with a vehicle on the
    segment, and that query pattern is part of its output.

    Realization is lazy, deterministic, and append-only: any query at
    time ``t`` extends the timeline through ``t`` and memoizes it, so
    repeated queries are pure.  ``demand=None`` marks the controller as
    needing live feedback (:attr:`needs_feedback`); the queueing sim
    binds its per-approach recorder via :meth:`bind_demand` at run
    start.  An optional programmed plan switch (``base2`` at
    ``switch_at_s``) changes the base plan under adaptation: the first
    cycle starting at or after ``switch_at_s`` uses ``base2``.
    """

    def __init__(
        self,
        base: LightSchedule,
        *,
        alpha: float = 1.0,
        demand: Optional[DemandFn] = None,
        anchor_t: float = 0.0,
        base2: Optional[LightSchedule] = None,
        switch_at_s: Optional[float] = None,
        min_green_s: float = 5.0,
        max_green_factor: float = 2.5,
        max_realized_cycles: int = 500_000,
    ) -> None:
        self.base = base
        self.alpha = check_in_range("alpha", float(alpha), 0.0, 1.0, inclusive=True)
        if (base2 is None) != (switch_at_s is None):
            raise ValueError("base2 and switch_at_s must be given together")
        self.base2 = base2
        self.switch_at_s = None if switch_at_s is None else float(switch_at_s)
        self.min_green_s = check_positive("min_green_s", float(min_green_s))
        self.max_green_factor = check_positive("max_green_factor", float(max_green_factor))
        if max_realized_cycles < 1:
            raise ValueError(f"max_realized_cycles must be >= 1, got {max_realized_cycles}")
        self.max_realized_cycles = int(max_realized_cycles)
        self._demand = demand
        self._sim_bound = False
        self._starts: List[float] = []
        self._schedules: List[LightSchedule] = []
        self._start0 = 0.0
        self._frontier = 0.0
        self._anchor(float(anchor_t))

    # -- demand wiring -------------------------------------------------
    @property
    def needs_feedback(self) -> bool:
        """True when no demand source is bound yet (the live sim must
        bind one before this controller can realize any cycle)."""
        return self._demand is None

    @property
    def sim_bound(self) -> bool:
        """True when the current demand source is a per-run sim recorder
        (bound via :meth:`bind_sim_demand`); such bindings are stale
        outside their run and get replaced at the next run start."""
        return self._sim_bound

    def bind_demand(self, demand: DemandFn, *, anchor_t: float) -> None:
        """Bind (or replace) the demand source and restart realization
        with cycle 0 anchored at the first base-grid cycle boundary at
        or after ``anchor_t`` (times before it follow the base plan,
        phase-continuously — grid boundaries start red).  One binding
        drives one realized timeline; the sim rebinds at the start of
        every run."""
        self._demand = demand
        self._sim_bound = False
        self._anchor(float(anchor_t))

    def bind_sim_demand(self, demand: DemandFn, *, anchor_t: float) -> None:
        """:meth:`bind_demand`, marked per-run: the queueing sim binds
        its recorder through this so a controller reused across runs —
        or shared by same-approach segments, each adapting to its own
        approach's traffic — is re-bound instead of replaying a stale
        recorder."""
        self.bind_demand(demand, anchor_t=anchor_t)
        self._sim_bound = True

    def _anchor(self, t: float) -> None:
        check_nonnegative("anchor_t", t)
        k = math.ceil((t - self.base.offset_s) / self.base.cycle_s)
        start0 = self.base.offset_s + k * self.base.cycle_s
        if start0 < t:
            start0 += self.base.cycle_s
        self._start0 = start0
        self._starts = []
        self._schedules = []
        self._frontier = start0

    # -- the subclass hook ---------------------------------------------
    def _adaptive_green(self, base: LightSchedule, signal: DemandSignal) -> float:
        """Raw (pre-blend, pre-clip) green duration for one cycle."""
        raise NotImplementedError

    # -- realization ---------------------------------------------------
    def _base_for(self, start: float) -> LightSchedule:
        if self.base2 is not None and self.switch_at_s is not None and start >= self.switch_at_s:
            return self.base2
        return self.base

    def _observe(self, t0: float, t1: float) -> DemandSignal:
        if self._demand is None:
            raise ValueError(
                "adaptive controller has no demand source bound; pass demand= "
                "or let the queueing sim bind its recorder (needs_feedback)"
            )
        return self._demand(t0, t1)

    def _blend_green(self, base: LightSchedule, signal: DemandSignal) -> float:
        raw = self._adaptive_green(base, signal)
        green = (1.0 - self.alpha) * base.green_s + self.alpha * raw
        lo = min(self.min_green_s, base.green_s)
        hi = self.max_green_factor * base.green_s
        return float(min(max(green, lo), hi))

    def _extend_to(self, t: float) -> None:
        while self._frontier <= t:
            if len(self._starts) >= self.max_realized_cycles:
                raise ValueError(
                    f"adaptive realization exceeded max_realized_cycles="
                    f"{self.max_realized_cycles} (query at t={t!r}); "
                    "re-anchor with bind_demand or raise the limit"
                )
            start = self._frontier
            base = self._base_for(start)
            lookback = self._schedules[-1].cycle_s if self._schedules else base.cycle_s
            signal = self._observe(start - lookback, start)
            green = self._blend_green(base, signal)
            sched = LightSchedule(cycle_s=base.red_s + green, red_s=base.red_s, offset_s=start)
            self._starts.append(start)
            self._schedules.append(sched)
            self._frontier = start + sched.cycle_s

    def _is_static_shortcut(self) -> bool:
        return self.alpha == 0.0 and self.base2 is None

    # -- LightController interface -------------------------------------
    def schedule_at(self, t: float) -> LightSchedule:
        if self._is_static_shortcut():
            return self.base
        tf = float(t)
        if tf < self._start0:
            return self._base_for(tf)
        self._extend_to(tf)
        idx = bisect_right(self._starts, tf) - 1
        return self._schedules[idx]

    def plan_switch_times(self, t0: float, t1: float) -> List[float]:
        if self._is_static_shortcut():
            return []
        self._extend_to(float(t1))
        out: List[float] = []
        # Before the anchor the base plan governs, so the first realized
        # segment is compared against it: the handoff itself can be the
        # first plan change.
        prev = self._base_for(self._start0)
        for start, sched in zip(self._starts, self._schedules):
            if t0 <= start < t1 and (
                abs(sched.cycle_s - prev.cycle_s) > _PLAN_TOL_S
                or abs(sched.red_s - prev.red_s) > _PLAN_TOL_S
            ):
                out.append(start)
            prev = sched
        return out

    def realized_cycles(self, t0: float, t1: float) -> List[Tuple[float, LightSchedule]]:
        """Realized ``(start, effective schedule)`` segments overlapping
        ``[t0, t1)``, realizing through ``t1`` if needed (the
        ``alpha=0`` shortcut is bypassed so the realized timeline is
        inspectable in every configuration)."""
        self._extend_to(float(t1))
        return [
            (start, sched)
            for start, sched in zip(self._starts, self._schedules)
            if start < t1 and start + sched.cycle_s > t0
        ]


class ActuatedController(AdaptiveController):
    """Queue-actuated green extension.

    Green extends past the base plan by ``extension_per_vehicle_s`` for
    every queued vehicle above ``queue_threshold`` — the classic
    presence-detector extension: the longer the standing queue when the
    decision is made, the longer the green that serves it.
    """

    def __init__(
        self,
        base: LightSchedule,
        *,
        alpha: float = 1.0,
        demand: Optional[DemandFn] = None,
        anchor_t: float = 0.0,
        base2: Optional[LightSchedule] = None,
        switch_at_s: Optional[float] = None,
        min_green_s: float = 5.0,
        max_green_factor: float = 2.5,
        max_realized_cycles: int = 500_000,
        queue_threshold: float = 2.0,
        extension_per_vehicle_s: float = 2.0,
    ) -> None:
        super().__init__(
            base,
            alpha=alpha,
            demand=demand,
            anchor_t=anchor_t,
            base2=base2,
            switch_at_s=switch_at_s,
            min_green_s=min_green_s,
            max_green_factor=max_green_factor,
            max_realized_cycles=max_realized_cycles,
        )
        self.queue_threshold = check_nonnegative("queue_threshold", float(queue_threshold))
        self.extension_per_vehicle_s = check_nonnegative(
            "extension_per_vehicle_s", float(extension_per_vehicle_s)
        )

    def _adaptive_green(self, base: LightSchedule, signal: DemandSignal) -> float:
        excess = max(signal.queue_len - self.queue_threshold, 0.0)
        return base.green_s + self.extension_per_vehicle_s * excess


class GapActuatedController(AdaptiveController):
    """Gap-out control: green lasts while arrival headways stay short.

    The gap-out chance per unit extension is the probability that a
    headway exceeds ``gap_s`` under exponential headways with the
    observed mean, ``p = exp(-gap_s / headway)``; the expected green is
    the minimum green plus ``unit_extension_s`` extensions until the
    first gap-out, ``min_green_s + unit_extension_s * (1 - p) / p``.
    Dense platoons (short headways) hold the green toward the max-green
    clip; an empty approach (``headway = inf``) gaps out immediately at
    the minimum green.
    """

    def __init__(
        self,
        base: LightSchedule,
        *,
        alpha: float = 1.0,
        demand: Optional[DemandFn] = None,
        anchor_t: float = 0.0,
        base2: Optional[LightSchedule] = None,
        switch_at_s: Optional[float] = None,
        min_green_s: float = 5.0,
        max_green_factor: float = 2.5,
        max_realized_cycles: int = 500_000,
        gap_s: float = 4.0,
        unit_extension_s: float = 2.5,
    ) -> None:
        super().__init__(
            base,
            alpha=alpha,
            demand=demand,
            anchor_t=anchor_t,
            base2=base2,
            switch_at_s=switch_at_s,
            min_green_s=min_green_s,
            max_green_factor=max_green_factor,
            max_realized_cycles=max_realized_cycles,
        )
        self.gap_s = check_positive("gap_s", float(gap_s))
        self.unit_extension_s = check_positive("unit_extension_s", float(unit_extension_s))

    def _adaptive_green(self, base: LightSchedule, signal: DemandSignal) -> float:
        h = signal.headway_s
        if math.isinf(h) or math.isnan(h):
            return self.min_green_s
        p = max(math.exp(-self.gap_s / h), 1e-6)
        return self.min_green_s + self.unit_extension_s * (1.0 - p) / p


#: Default fuzzy rule table: rows are queue memberships (low, medium,
#: high), columns are headway memberships (short, medium, long); the
#: entry is the green adjustment in units of ``max_adjust_s``.  High
#: queue + short headways (saturated approach) extends fully; low queue
#: + long headways (empty approach) shrinks fully.
_FUZZY_RULES: Tuple[Tuple[float, float, float], ...] = (
    (0.0, -0.5, -1.0),
    (0.5, 0.0, -0.5),
    (1.0, 0.5, 0.0),
)


def _memberships(x: float) -> Tuple[float, float, float]:
    """Triangular (low, medium, high) memberships of a normalized
    value; the reference point ``x=1`` is fully medium, ``x>=2`` fully
    high, ``x<=0`` fully low."""
    x = min(max(x, 0.0), 2.0)
    low = max(1.0 - x, 0.0)
    mid = max(1.0 - abs(x - 1.0), 0.0)
    high = min(max(x - 1.0, 0.0), 1.0)
    return low, mid, high


class FuzzyController(AdaptiveController):
    """Rule-table fuzzy control over (queue, headway).

    Queue length and headway are normalized by their reference values,
    fuzzified into (low, medium, high) / (short, medium, long)
    triangular memberships, combined through a 3x3 rule table with
    ``min`` conjunction, and defuzzified by weighted average into a
    green adjustment in ``[-max_adjust_s, +max_adjust_s]`` around the
    base green.
    """

    def __init__(
        self,
        base: LightSchedule,
        *,
        alpha: float = 1.0,
        demand: Optional[DemandFn] = None,
        anchor_t: float = 0.0,
        base2: Optional[LightSchedule] = None,
        switch_at_s: Optional[float] = None,
        min_green_s: float = 5.0,
        max_green_factor: float = 2.5,
        max_realized_cycles: int = 500_000,
        queue_ref: float = 6.0,
        headway_ref_s: float = 8.0,
        max_adjust_s: float = 20.0,
        rules: Optional[Tuple[Tuple[float, float, float], ...]] = None,
    ) -> None:
        super().__init__(
            base,
            alpha=alpha,
            demand=demand,
            anchor_t=anchor_t,
            base2=base2,
            switch_at_s=switch_at_s,
            min_green_s=min_green_s,
            max_green_factor=max_green_factor,
            max_realized_cycles=max_realized_cycles,
        )
        self.queue_ref = check_positive("queue_ref", float(queue_ref))
        self.headway_ref_s = check_positive("headway_ref_s", float(headway_ref_s))
        self.max_adjust_s = check_positive("max_adjust_s", float(max_adjust_s))
        table = _FUZZY_RULES if rules is None else rules
        if len(table) != 3 or any(len(row) != 3 for row in table):
            raise ValueError("fuzzy rules must be a 3x3 table")
        for row in table:
            for v in row:
                check_in_range("fuzzy rule", float(v), -1.0, 1.0, inclusive=True)
        self.rules = tuple(tuple(float(v) for v in row) for row in table)

    def _adaptive_green(self, base: LightSchedule, signal: DemandSignal) -> float:
        mq = _memberships(signal.queue_len / self.queue_ref)
        h = signal.headway_s
        x_h = 2.0 if not math.isfinite(h) else h / self.headway_ref_s
        mh = _memberships(x_h)
        num = 0.0
        den = 0.0
        for qi in range(3):
            for hi in range(3):
                w = min(mq[qi], mh[hi])
                num += w * self.rules[qi][hi]
                den += w
        adjust = 0.0 if den == 0.0 else num / den
        return base.green_s + self.max_adjust_s * adjust
