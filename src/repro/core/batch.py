"""Citywide identification: the paper's per-light stages, written once.

This module holds the only definition of the seven §V–§VI stages
(samples, stops, cycle, red, superposition, changepoint, refine) and
the only orchestrator that runs them, :func:`identify_batch`.  Every
identification entry point goes through it: ``identify_many``'s
``"batched"`` backend runs the whole city in one call, ``"serial"``
runs one light per call, ``"shard"`` runs one key shard per worker, the
stream session re-runs its dirty lights, and
:func:`repro.core.pipeline.identify_light` runs one light on a
one-light store and re-raises its exception.

The cycle stage (§V) is one function, :func:`identify_cycles`:
samples (with §V.B's perpendicular mirror), stops, regularization,
**one** ``np.fft.rfft`` over the ``(n_lights, n_seconds)`` matrix of
regularized 1 Hz speed grids (:func:`spectra_batch`) and each light's
candidate selection (:func:`repro.core.cycle._select_cycle`, one
:class:`~repro.core.cycle.FoldScanner` per light).  The §VII monitor
(:func:`repro.core.monitor.monitor_cycle`) calls it once per window;
:func:`identify_batch` runs it, then red, superposition and change point
in two more passes (:func:`_score_light`, :func:`_assemble_light`), with
the whole city sharing array kernels between them:

* **one** global fold + ``bincount`` building every light's superposed
  cycle profile (:func:`cycle_profile_batch`);
* **one** strided cumulative-sum pass computing every light's circular
  moving average (:func:`circular_moving_average_batch`).

Every kernel is row-wise exact: it reproduces the floating-point
operation order of its scalar reference (``spectrum``, ``fold_zscore``,
``cycle_profile``, ``circular_moving_average``), so a light's estimate
has the same bits whether it runs alone or with the whole city.
``tests/test_kernel_properties.py``, ``tests/test_batch_parity.py`` and
the golden fixtures pin this down.

Fault containment: every per-light step runs through the sanctioned
containment seam (:func:`repro.parallel.pool.run_guarded`).  A light
that raises gets its :class:`~repro.obs.report.LightFailure` where it
raised — the exception's class and message, and the stage its
telemetry last entered — and drops out of the later passes; the other
lights carry on.  When a whole-city superposition fold raises, the same
kernel re-runs one light at a time, so only the light that breaks it
fails.  This module itself holds no catch-all handlers (the REP002
invariant).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lights.schedule import LightSchedule
from ..matching.partition import LightKey, partner_of
from ..obs import LightFailure, StageTelemetry
from ..parallel.pool import WorkerError, run_guarded
from ..trace.store import PartitionStore
from .changepoint import find_signal_change
from .cycle import _select_cycle
from .enhancement import choose_primary, enhance_samples
from .interpolation import regularize
from .pipeline import PipelineConfig
from .redlight import estimate_red_duration, refine_red_from_change
from .signal_types import CycleEstimate, InsufficientDataError, ScheduleEstimate
from .superposition import fill_circular

__all__ = [
    "identify_batch",
    "identify_cycles",
    "spectra_batch",
    "cycle_profile_batch",
    "circular_moving_average_batch",
]


# ----------------------------------------------------------------------
# Vectorized kernels (each bit-identical to its serial counterpart)
# ----------------------------------------------------------------------

def spectra_batch(
    signals: np.ndarray, dt: float = 1.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`repro.core.cycle.spectrum` in one ``rfft``.

    ``signals`` is the ``(n_lights, n_seconds)`` stack of regularized
    grids (equal window lengths); returns the shared ``periods`` axis
    and the ``(n_lights, n_bins)`` magnitude matrix.  Each row is
    bit-identical to ``spectrum(signals[i], dt)``.
    """
    signals = np.ascontiguousarray(signals, dtype=np.float64)
    if signals.ndim != 2 or signals.shape[1] < 4:
        raise ValueError(
            f"signals must be (n_lights, n_seconds>=4), got {signals.shape}"
        )
    x = signals - signals.mean(axis=1, keepdims=True)
    mag = np.abs(np.fft.rfft(x, axis=1))
    n = np.arange(1, mag.shape[1])
    periods = (signals.shape[1] * dt) / n
    return periods, mag[:, 1:]


def cycle_profile_batch(
    entries: Sequence[Tuple[np.ndarray, np.ndarray, float, float]],
    *,
    bin_s: float = 1.0,
) -> List[Optional[np.ndarray]]:
    """Superposed cycle profiles for many lights in one fold pass.

    ``entries`` holds ``(t, v, cycle_s, anchor)`` per light; element
    ``i`` of the result is bit-identical to
    ``cycle_profile(t, v, cycle_s, anchor, bin_s=bin_s)`` — the global
    stable sort orders samples by (light, folded time), matching the
    serial per-light fold order inside every histogram bin.  A light
    whose profile cannot be built (zero samples) yields ``None`` so the
    caller can contain it without aborting the batch.
    """
    L = len(entries)
    if L == 0:
        return []
    lengths = np.array([e[0].shape[0] for e in entries], dtype=np.int64)
    cycles = np.array([float(e[2]) for e in entries], dtype=np.float64)
    anchors = np.array([float(e[3]) for e in entries], dtype=np.float64)
    nbins = np.maximum(np.ceil(cycles / bin_s).astype(np.int64), 1)
    offsets = np.concatenate([[0], np.cumsum(nbins)])

    t_all = np.concatenate([np.asarray(e[0], dtype=np.float64) for e in entries]) \
        if lengths.sum() else np.empty(0)
    v_all = np.concatenate([np.asarray(e[1], dtype=np.float64) for e in entries]) \
        if lengths.sum() else np.empty(0)
    lid = np.repeat(np.arange(L), lengths)
    cyc = cycles[lid]
    # wrap_mod, elementwise with a per-sample modulus
    ft = np.mod(t_all - anchors[lid], cyc)
    ft = np.where(ft >= cyc, ft - cyc, ft)

    order = np.lexsort((ft, lid))  # stable: serial per-light fold order
    ft, fv, lid = ft[order], v_all[order], lid[order]
    idx = np.minimum((ft / bin_s).astype(np.int64), (nbins - 1)[lid])
    flat = idx + offsets[lid]
    total = int(offsets[-1])
    sums = np.bincount(flat, weights=fv, minlength=total)
    counts = np.bincount(flat, minlength=total)

    profiles: List[Optional[np.ndarray]] = []
    for i in range(L):
        s = sums[offsets[i]:offsets[i + 1]]
        c = counts[offsets[i]:offsets[i + 1]]
        filled = c > 0
        if not filled.any():
            profiles.append(None)
            continue
        profile = np.full(int(nbins[i]), np.nan)
        profile[filled] = s[filled] / c[filled]
        profiles.append(fill_circular(profile, filled))
    return profiles


def circular_moving_average_batch(
    profiles: Sequence[np.ndarray], windows: Sequence[int]
) -> List[np.ndarray]:
    """Per-light circular moving averages in one strided cumsum pass.

    Element ``i`` is bit-identical to
    ``circular_moving_average(profiles[i], windows[i])``: each padded
    row holds the serial code's tiled copy, the shared ``cumsum(axis=1)``
    reproduces the serial prefix sums (the zero padding only ever sits
    *after* the used prefix), and the window difference and division run
    per row with the row's own window.
    """
    L = len(profiles)
    out: List[Optional[np.ndarray]] = [None] * L
    rows = []
    for i, (p, w) in enumerate(zip(profiles, windows)):
        n = p.shape[0]
        if not 1 <= w <= n:
            raise ValueError(f"window must be in [1, {n}], got {w}")
        if w == 1:
            out[i] = p.astype(np.float64)  # serial w==1 shortcut, same rounding
        else:
            rows.append(i)
    if rows:
        ns = np.array([profiles[i].shape[0] for i in rows], dtype=np.int64)
        ws = np.array([int(windows[i]) for i in rows], dtype=np.int64)
        width = int((ns + ws - 1).max())
        mat = np.zeros((len(rows), width))
        for j, i in enumerate(rows):
            p, n, w = profiles[i], int(ns[j]), int(ws[j])
            mat[j, :n] = p
            mat[j, n:n + w - 1] = p[: w - 1]
        csum = np.concatenate(
            [np.zeros((len(rows), 1)), np.cumsum(mat, axis=1)], axis=1
        )
        for j, i in enumerate(rows):
            n, w = int(ns[j]), int(ws[j])
            out[i] = (csum[j, w:w + n] - csum[j, :n]) / w
    return out  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Orchestrator: the paper's seven stages, written once
# ----------------------------------------------------------------------

#: Floor for the red-duration estimate: one ``cycle_profile`` bin
#: (``bin_s=1.0``).  The border-interval estimator can return ~0 on
#: degenerate histograms, and ``find_signal_change`` requires a strictly
#: positive sliding-window length.
_MIN_RED_S = 1.0


def _prepare_light(
    store: PartitionStore,
    key: LightKey,
    perp_key: LightKey,
    cfg: PipelineConfig,
    anchor: float,
    at_time: float,
    tel: StageTelemetry,
) -> dict:
    """The cycle pass for one light, up to the DFT: samples, stops, grid.

    Raises on any per-light problem; :func:`_cycle_pass` routes the call
    through :func:`repro.parallel.pool.run_guarded`.
    """
    ccfg = cfg.cycle
    with tel.stage("samples"):
        t_own, v_own = store.window_samples(
            key, anchor, at_time, cfg.max_sample_dist_m
        )
        t, v = t_own, v_own
        tel.count("samples_primary", int(t_own.shape[0]))
        enhanced = False
        if (
            cfg.use_enhancement
            and perp_key in store
            and t.shape[0] < cfg.enhancement_threshold
        ):
            tp, vp = store.window_samples(
                perp_key, anchor, at_time, cfg.max_sample_dist_m
            )
            if tp.size:
                t1_, v1_, t2_, v2_ = choose_primary(t, v, tp, vp)
                t, v = enhance_samples(t1_, v1_, t2_, v2_)
                enhanced = True
                tel.count("lights_enhanced", 1)
                tel.count("samples_mirrored", int(tp.shape[0]))

    with tel.stage("stops"):
        stops_all = store.stops(key).time_window(
            at_time - cfg.stop_window_s, at_time
        )
        tel.count("stops_extracted", len(stops_all))
        stops = (
            stops_all.subset(~stops_all.passenger_changed)
            if len(stops_all)
            else stops_all
        )
        tel.count("stops_kept", len(stops))
        # Each stop's last stationary report precedes the true green onset
        # by ~half that taxi's report gap on average; corrected end times
        # anchor both the cycle search (comb score) and the change point.
        gaps = stops.duration_s / np.maximum(stops.n_records - 1, 1)
        stop_ends = stops.t_end + gaps / 2.0

    with tel.stage("cycle"):
        # §V part 1 — regularize onto the shared window grid;
        # the DFT itself runs once for the whole city later.
        _grid, sig = regularize(
            t, v, anchor, at_time,
            dt=ccfg.dt, kind=ccfg.kind, min_samples=ccfg.min_samples,
        )

    return dict(t=t, v=v, enhanced=enhanced, stops=stops, stop_ends=stop_ends, sig=sig)


def _select_light(
    st: dict,
    cfg: PipelineConfig,
    periods: np.ndarray,
    in_band: np.ndarray,
    anchor: float,
    at_time: float,
    tel: StageTelemetry,
) -> dict:
    """§V's last step for one light: cycle selection on its spectrum row.

    Mutates and returns ``st``; raises on failure (routed through the
    containment seam by :func:`_cycle_pass`).
    """
    ccfg = cfg.cycle
    with tel.stage("cycle"):
        if not in_band.any():
            raise InsufficientDataError(
                f"window [{anchor}, {at_time}) has no DFT bin inside "
                f"[{ccfg.min_cycle_s}, {ccfg.max_cycle_s}] s"
            )
        st["cyc"] = _select_cycle(
            st["t"], st["v"], periods, st["mag"], in_band, ccfg,
            enhanced=st["enhanced"],
            stop_ends=st["stop_ends"] if len(st["stops"]) else None,
            telemetry=tel,
        )
    return st


def _score_light(
    store: PartitionStore,
    key: LightKey,
    st: dict,
    cfg: PipelineConfig,
    at_time: float,
    phase_anchor: float,
    tel: StageTelemetry,
) -> dict:
    """Pass 2 for one light: red duration and the phase window.

    Mutates and returns ``st``; raises on failure (routed through the
    containment seam by the orchestrator).
    """
    cycle_s = st["cyc"].cycle_s
    with tel.stage("red"):
        interval_s = (
            store.mean_interval(key) if cfg.measure_interval else None
        )
        red = estimate_red_duration(
            st["stops"].duration_s, cycle_s, cfg.red,
            mean_interval_s=interval_s,
        )
        tel.count("red_stops_used", red.n_stops_used)
        tel.count("red_stops_rejected", red.n_stops_rejected)
        # Clamp to [one profile bin, 0.9·cycle]: keeps the schedule
        # well-formed and keeps find_signal_change's check_positive
        # satisfied when the border-interval estimate degenerates to ~0.
        red_s = float(np.clip(red.red_s, _MIN_RED_S, 0.9 * cycle_s))

    with tel.stage("superposition"):
        # Superpose the *target direction's* own samples (not the mirrored
        # ones: the perpendicular direction has the opposite phase) over
        # the tighter phase window; the fold itself runs once for the
        # whole city later.
        t_ph, v_ph = store.window_samples(
            key, phase_anchor, at_time, cfg.max_sample_dist_m
        )
        if t_ph.shape[0] < 4:
            raise InsufficientDataError(
                f"only {t_ph.shape[0]} samples for superposition in "
                f"window [{phase_anchor}, {at_time})"
            )
        tel.count("samples_phase", int(t_ph.shape[0]))

    st.update(cycle_s=cycle_s, red=red, red_s=red_s, t_ph=t_ph, v_ph=v_ph)
    return st


def _batch_moving_averages(
    states: Dict[LightKey, dict], profiles: Dict[LightKey, np.ndarray]
) -> Dict[LightKey, np.ndarray]:
    """All built lights' circular moving averages in one strided pass.

    Raises on any problem; the orchestrator treats that as "no batched
    moving averages" and lets the change-point step compute each
    light's own.
    """
    windows = [
        int(np.clip(round(states[key]["red_s"] / 1.0), 1, profile.shape[0]))
        for key, profile in profiles.items()
    ]
    ma_list = circular_moving_average_batch(list(profiles.values()), windows)
    return dict(zip(profiles, ma_list))


def _assemble_light(
    key: LightKey,
    st: dict,
    profile: np.ndarray,
    ma: Optional[np.ndarray],
    cfg: PipelineConfig,
    phase_anchor: float,
    at_time: float,
    tel: StageTelemetry,
) -> ScheduleEstimate:
    """Pass 3 for one light: change point, refinement, assembly.

    Raises on failure (routed through the containment seam by the
    orchestrator).
    """
    stops, stop_ends = st["stops"], st["stop_ends"]
    cycle_s, red_s = st["cycle_s"], st["red_s"]
    red = st["red"]
    with tel.stage("changepoint"):
        ends_in_cycle = np.mod(stop_ends - phase_anchor, cycle_s)
        change = find_signal_change(
            profile,
            red_s,
            stop_ends_in_cycle=ends_in_cycle if len(stops) else None,
            fusion_weight=cfg.fusion_weight,
            moving_average=ma,
        )

    with tel.stage("refine"):
        red_to_green_abs = phase_anchor + change.red_to_green_s
        if cfg.refine_red:
            refined = refine_red_from_change(
                stops, cycle_s, red_to_green_abs
            )
            if refined is not None:
                red_s = float(np.clip(refined, _MIN_RED_S, 0.9 * cycle_s))
                red = replace(red, red_s=red_s)
                tel.count("red_refined", 1)

    schedule = LightSchedule(
        cycle_s=cycle_s,
        red_s=red_s,
        # the detector pins the red→green instant; red counts back from it
        offset_s=red_to_green_abs - red_s,
    )
    return ScheduleEstimate(
        intersection_id=key[0],
        approach=key[1],
        at_time=at_time,
        schedule=schedule,
        cycle=st["cyc"],
        red=red,
        change=change,
    )


def _cycle_pass(
    store: PartitionStore,
    at_time: float,
    cfg: PipelineConfig,
    tels: Dict[LightKey, StageTelemetry],
) -> Tuple[Dict[LightKey, dict], Dict[LightKey, WorkerError]]:
    """§V for every light in ``tels``: the one cycle stage.

    Samples (with the §V.B mirror), stops and the regularized grid per
    light, one whole-city DFT, then each light's cycle selection.
    Returns ``(states, errors)``: a surviving light's state holds its
    :class:`~repro.core.signal_types.CycleEstimate` under ``"cyc"`` and
    what the later stages read (samples, stops, stop ends).
    """
    ccfg = cfg.cycle
    anchor = at_time - cfg.window_s
    states: Dict[LightKey, dict] = {}
    errors: Dict[LightKey, WorkerError] = {}
    for key in sorted(tels):
        state = run_guarded(
            _prepare_light, store, key, partner_of(key), cfg, anchor, at_time,
            tels[key],
        )
        if isinstance(state, WorkerError):
            errors[key] = state
        else:
            states[key] = state
    if not states:
        return states, errors

    # -- whole-city DFT, then each light's selection --------------------
    live = list(states)
    sigs = np.stack([states[key]["sig"] for key in live])
    periods, mags = spectra_batch(sigs, ccfg.dt)
    in_band = (periods >= ccfg.min_cycle_s) & (periods <= ccfg.max_cycle_s)
    for i, key in enumerate(live):
        states[key]["mag"] = mags[i]
        picked = run_guarded(
            _select_light, states[key], cfg, periods, in_band, anchor, at_time,
            tels[key],
        )
        if isinstance(picked, WorkerError):
            errors[key] = picked
            del states[key]
    return states, errors


def _run_passes(
    store: PartitionStore,
    at_time: float,
    config: Optional[PipelineConfig],
    tels: Dict[LightKey, StageTelemetry],
) -> Tuple[Dict[LightKey, ScheduleEstimate], Dict[LightKey, WorkerError]]:
    """Run the cycle pass, the later passes, and the kernels between them.

    Identifies every light in ``tels``, writing its stage timings and
    counters into ``tels[key]``.  Each per-light step runs through
    :func:`repro.parallel.pool.run_guarded`: a light that raises leaves
    the later passes with its :class:`~repro.parallel.pool.WorkerError`
    and every other light carries on.  Returns ``(estimates, errors)``.
    """
    cfg = PipelineConfig() if config is None else config
    phase_anchor = at_time - cfg.phase_window_s
    states, errors = _cycle_pass(store, at_time, cfg, tels)

    # -- per-light pass 2: red, phase window ----------------------------
    for key in list(states):
        scored = run_guarded(
            _score_light, store, key, states[key], cfg, at_time, phase_anchor,
            tels[key],
        )
        if isinstance(scored, WorkerError):
            errors[key] = scored
            del states[key]

    # -- whole-city superposition + moving average ----------------------
    # Pass 2 left every light with at least 4 phase samples, so none of
    # their profiles comes back None.
    phase_keys = list(states)
    entries = [
        (states[key]["t_ph"], states[key]["v_ph"], states[key]["cycle_s"],
         phase_anchor)
        for key in phase_keys
    ]
    profs = run_guarded(cycle_profile_batch, entries) if entries else []
    if isinstance(profs, WorkerError):
        # The same kernel one light at a time: only the light that breaks
        # it fails, at stage "superposition" (the last one pass 2 entered).
        profs = [run_guarded(cycle_profile_batch, [entry]) for entry in entries]
        profs = [p if isinstance(p, WorkerError) else p[0] for p in profs]
    profiles: Dict[LightKey, np.ndarray] = {}
    for key, profile in zip(phase_keys, profs):
        if isinstance(profile, WorkerError):
            errors[key] = profile
        else:
            profiles[key] = profile
    mas: Dict[LightKey, np.ndarray] = {}
    if profiles:
        # With no batched moving averages, pass 3 lets
        # find_signal_change compute each light's own.
        got = run_guarded(_batch_moving_averages, states, profiles)
        mas = {} if isinstance(got, WorkerError) else got

    # -- per-light pass 3: change point, refinement, assembly -----------
    estimates: Dict[LightKey, ScheduleEstimate] = {}
    for key, profile in profiles.items():
        est = run_guarded(
            _assemble_light, key, states[key], profile, mas.get(key),
            cfg, phase_anchor, at_time, tels[key],
        )
        if isinstance(est, WorkerError):
            errors[key] = est
        else:
            estimates[key] = est
    return estimates, errors


def _light_failures(
    errors: Dict[LightKey, WorkerError], tels: Dict[LightKey, StageTelemetry]
) -> Dict[LightKey, LightFailure]:
    """Each failed light's record: its error, at the stage it last entered."""
    return {
        key: LightFailure(
            error_type=errors[key].error_type,
            stage=tels[key].last_stage or "setup",
            message=errors[key].message,
        )
        for key in sorted(errors)
    }


def identify_cycles(
    store: PartitionStore,
    at_time: float,
    *,
    config: Optional[PipelineConfig] = None,
    keys: Optional[Sequence[LightKey]] = None,
) -> Tuple[
    Dict[LightKey, CycleEstimate],
    Dict[LightKey, LightFailure],
    Dict[LightKey, StageTelemetry],
]:
    """Every light's cycle at ``at_time``: §V alone, through the batched DFT.

    The cycle stage :func:`identify_batch` runs before red,
    superposition and change point, on the same arguments: ``store``
    (a plain partition dict is wrapped on the fly), ``config`` and
    ``keys``.  Returns ``(cycles, failures, telemetry_by_light)``; each
    light lands in exactly one of the first two, so a light that would
    fail at red or superposition still has its cycle here.
    """
    store = PartitionStore.from_partitions(store)
    keys = sorted(store) if keys is None else sorted(keys)
    tels = {key: StageTelemetry() for key in keys}
    cfg = PipelineConfig() if config is None else config
    states, errors = _cycle_pass(store, at_time, cfg, tels)
    cycles = {key: st["cyc"] for key, st in states.items()}
    return cycles, _light_failures(errors, tels), tels


def identify_batch(
    store: PartitionStore,
    at_time: float,
    *,
    config: Optional[PipelineConfig] = None,
    keys: Optional[Sequence[LightKey]] = None,
) -> Tuple[
    Dict[LightKey, ScheduleEstimate],
    Dict[LightKey, LightFailure],
    Dict[LightKey, StageTelemetry],
]:
    """Identify every light at ``at_time`` through the batched kernels.

    ``store`` is a :class:`~repro.trace.store.PartitionStore` (a plain
    partition dict is wrapped on the fly).  Returns
    ``(estimates, failures, telemetry_by_light)``.  A light that raises
    gets a :class:`~repro.obs.report.LightFailure` carrying the
    exception's class and message and the stage it raised in; the other
    lights are unaffected.  Quarantined irregular partitions run the
    same passes through the store's pass-through views.

    ``keys`` restricts the run to a subset of lights (the streaming
    backend re-runs only dirty lights; ``backend="serial"`` runs one
    light per call).  Perpendicular-enhancement lookups still consult
    the full store, and every kernel is row-wise exact, so each light's
    estimate is bit-identical whether it runs alone, in a subset or in
    the full city.
    """
    store = PartitionStore.from_partitions(store)
    keys = sorted(store) if keys is None else sorted(keys)
    tels = {key: StageTelemetry() for key in keys}
    estimates, errors = _run_passes(store, at_time, config, tels)
    return estimates, _light_failures(errors, tels), tels
