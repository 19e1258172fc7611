"""Evaluation harness (§VIII.A): repeated randomized identification runs.

Drives the full stack end-to-end: simulate a scenario → generate raw
taxi reports → preprocess (match + partition) → identify every light at
many randomly chosen time spots → score against the scenario's ground
truth.  Produces the data behind Fig. 13 (one snapshot) and Fig. 14
(error CDFs over 1000+ runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import RngLike, as_rng
from ..core.pipeline import PipelineConfig, identify_many
from ..core.signal_types import ScheduleEstimate
from ..lights.schedule import LightSchedule
from ..matching.mapmatch import MatchConfig, match_trace
from ..matching.partition import LightKey, LightPartition, partition_by_light
from ..obs import LightFailure, RunReport
from ..parallel.pool import pmap_seeded
from ..trace.store import PartitionStore
from ..sim.queueing import SignalizedApproachSim
from ..trace.generator import TraceGenerator
from ..trace.records import TraceArrays
from .errors import ScheduleErrors, compare

__all__ = [
    "EvalSample",
    "EvalResult",
    "simulate_and_partition",
    "evaluate_at_times",
    "evaluate_replay",
]

#: Ground-truth lookup: (intersection_id, approach, time) → LightSchedule.
TruthFn = Callable[[int, str, float], LightSchedule]


@dataclass(frozen=True)
class EvalSample:
    """One (light, time spot) evaluation outcome."""

    key: LightKey
    at_time: float
    estimate: Optional[ScheduleEstimate]
    errors: Optional[ScheduleErrors]
    failure: Optional[LightFailure] = None

    @property
    def ok(self) -> bool:
        return self.estimate is not None


@dataclass
class EvalResult:
    """All samples of an evaluation sweep, with columnar error views."""

    samples: List[EvalSample]

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_failures(self) -> int:
        """Samples whose window was too sparse to estimate."""
        return sum(1 for s in self.samples if not s.ok)

    def _errors(self, attr: str) -> np.ndarray:
        return np.array(
            [
                getattr(s.errors, attr) if s.errors is not None else np.nan
                for s in self.samples
            ]
        )

    @property
    def cycle_errors(self) -> np.ndarray:
        """Signed cycle-length errors (NaN for failed samples)."""
        return self._errors("cycle_s")

    @property
    def red_errors(self) -> np.ndarray:
        """Signed red-duration errors (NaN for failed samples)."""
        return self._errors("red_s")

    @property
    def change_errors(self) -> np.ndarray:
        """Signed (circular) change-time errors (NaN for failed samples)."""
        return self._errors("change_s")

    def for_key(self, key: LightKey) -> "EvalResult":
        """Samples of one light."""
        return EvalResult([s for s in self.samples if s.key == key])


def _simulate_and_sample_approach(args, rng: np.random.Generator) -> TraceArrays:
    """Fused worker: simulate one approach AND sample its taxi reports.

    Fusing the two stages keeps the heavyweight 1 Hz vehicle tracks
    inside the worker — only the ~20x smaller sampled trace crosses the
    process boundary, which is what makes the fan-out actually scale
    (see ``bench_parallel_scaling``).  The per-approach RNG stream makes
    the output independent of worker count, though note the fused trace
    differs (by design) from the unfused two-stage stream for the same
    seed.
    """
    spec, generator, first_taxi_id = args
    sim = SignalizedApproachSim(
        controller=spec.controller,
        arrivals=spec.arrivals,
        config=spec.config,
        segment_id=spec.segment_id,
    )
    tracks = sim.run(spec.t0, spec.t1, rng=rng)
    return generator.generate_for_segment(
        tracks, rng, first_taxi_id=first_taxi_id
    )


def simulate_and_partition(
    scenario,
    t0: float,
    t1: float,
    *,
    seed: int = 0,
    generator: Optional[TraceGenerator] = None,
    match_config: Optional[MatchConfig] = None,
    max_workers: Optional[int] = None,
    serial: bool = False,
    fused: bool = False,
) -> Tuple[TraceArrays, Dict[LightKey, LightPartition]]:
    """Run a scenario end-to-end up to per-light partitions.

    ``scenario`` is any object exposing ``simulation()`` and ``net``
    (both canned scenarios qualify).  Returns the raw trace too, so
    statistics benches reuse the same data.

    ``fused=True`` runs simulation *and* trace sampling inside each
    worker (higher arithmetic intensity, ~20x less inter-process data);
    results are deterministic per seed but follow a different random
    stream than the default two-stage path.
    """
    # Construct per call: a default in the signature would be one shared
    # instance across every call site.
    match_config = MatchConfig() if match_config is None else match_config
    gen = generator or TraceGenerator(scenario.net)
    if fused:
        sim = scenario.simulation()
        specs = sim.specs(t0, t1)
        jobs = [
            (spec, gen, 10_000 + 100_000 * i) for i, spec in enumerate(specs)
        ]
        parts = pmap_seeded(
            _simulate_and_sample_approach, jobs, base_seed=seed,
            max_workers=max_workers, serial=serial,
        )
        trace = TraceArrays.concat(parts).sorted_by_time()
    else:
        sim = scenario.simulation()
        result = sim.run(t0, t1, seed=seed, max_workers=max_workers, serial=serial)
        trace = gen.generate(result, rng=as_rng(seed + 1))
    matched = match_trace(trace, scenario.net, match_config)
    partitions = partition_by_light(matched, scenario.net)
    return trace, partitions


def evaluate_at_times(
    partitions: Dict[LightKey, LightPartition],
    truth_fn: TruthFn,
    times: Sequence[float],
    *,
    config: Optional[PipelineConfig] = None,
    max_workers: Optional[int] = None,
    backend: str = "batched",
    report: Optional[RunReport] = None,
) -> EvalResult:
    """Identify every light at every time spot and score it.

    Each spot is one :func:`repro.core.pipeline.identify_many` call
    (``backend`` and ``max_workers`` pass through).  The partitions are
    packed into a :class:`~repro.trace.store.PartitionStore` **once**
    and shared across every time spot — repeated spots reuse cached
    per-light grids and stop events instead of re-deriving them per
    call.

    ``report`` (a :class:`~repro.obs.report.RunReport`) aggregates
    stage wall times, counters, and the typed failure map across all
    time spots of the sweep.
    """
    config = PipelineConfig() if config is None else config
    store = PartitionStore.from_partitions(partitions)
    samples: List[EvalSample] = []
    for at_time in times:
        estimates, failures = identify_many(
            partitions, float(at_time),
            config=config, max_workers=max_workers,
            backend=backend, store=store, report=report,
        )
        for key in sorted(partitions):
            iid, approach = key
            if key in estimates:
                est = estimates[key]
                truth = truth_fn(iid, approach, float(at_time))
                samples.append(
                    EvalSample(
                        key=key,
                        at_time=float(at_time),
                        estimate=est,
                        errors=compare(est, truth),
                    )
                )
            else:
                samples.append(
                    EvalSample(
                        key=key,
                        at_time=float(at_time),
                        estimate=None,
                        errors=None,
                        failure=failures.get(key),
                    )
                )
    return EvalResult(samples)


def evaluate_replay(
    partitions: Dict[LightKey, LightPartition],
    truth_fn: TruthFn,
    edges: Sequence[float],
    *,
    config: Optional[PipelineConfig] = None,
    report: Optional[RunReport] = None,
) -> EvalResult:
    """Replay a recorded scenario chunk-by-chunk through a stream session.

    The partitions are sliced at the time ``edges`` and ingested in
    order into a :class:`~repro.stream.StreamSession`; after each chunk
    the session refreshes only the dirty lights and every light's
    current estimate is scored against the truth at the chunk's end —
    the streaming analogue of :func:`evaluate_at_times`, exercising the
    incremental path end to end (Fig. 13/14 numbers, but maintained
    online).  Per-chunk :class:`~repro.obs.report.ChunkStats` fold into
    ``report``.
    """
    from ..stream.chunking import split_by_time
    from ..stream.session import StreamSession

    session = StreamSession(config=config, report=report)
    samples: List[EvalSample] = []
    for chunk, hi in zip(split_by_time(partitions, edges), edges[1:]):
        at_time = float(hi)
        update = session.ingest(chunk, at_time=at_time)
        for key in sorted(session.store):
            iid, approach = key
            est = update.estimates.get(key)
            if est is not None:
                truth = truth_fn(iid, approach, at_time)
                samples.append(
                    EvalSample(
                        key=key, at_time=at_time,
                        estimate=est, errors=compare(est, truth),
                    )
                )
            else:
                samples.append(
                    EvalSample(
                        key=key, at_time=at_time, estimate=None, errors=None,
                        failure=update.failures.get(key),
                    )
                )
    return EvalResult(samples)
