"""Per-layer tracing from outside the program.

While :meth:`LayerTrace.installed` is active, the public functions each
layer exposes are replaced by timing wrappers, by rebinding the module
or class attribute the program looks up at call time; on exit the
originals are restored.  Nothing under ``src/`` changes.

Wrapped entry points (the name each one reports under):

* ``repro.core.batch.identify_batch`` — ``core.batch.identify``; its
  per-light :class:`~repro.obs.StageTelemetry` and failures fold into a
  :class:`~repro.obs.RunReport` (``core.stage.*``, ``core.fail.*``);
* ``spectra_batch`` / ``cycle_profile_batch`` /
  ``circular_moving_average_batch`` as looked up by ``repro.core.batch``
  — the whole-city kernels that run outside every telemetry stage
  (``core.kernel.*``);
* ``repro.core.pipeline.identify_light`` — counted only when called from
  inside ``identify_batch``: that is the batched backend falling back to
  the per-light serial path (``core.batch.fallback_frac``);
* ``PartitionStore.append_partitions`` — ``trace.store.append``;
* ``StreamSession.ingest`` — ``stream.ingest``, with per-session call
  spans for queue-wait and publish latency;
* ``repair_outliers`` / ``detect_plan_changes`` as looked up by
  ``repro.stream.session`` — ``core.monitor.detect``.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.core.batch as batch_mod
import repro.core.pipeline as pipeline_mod
import repro.stream.session as session_mod
from repro.obs import RunReport
from repro.stream.session import StreamSession
from repro.trace.store import PartitionStore

from common import STAGES


class LayerTrace:
    """Spans and counts collected while the wrappers are installed."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.report = RunReport()
        #: ``id(session) -> [(start, end), ...]`` of every ingest call.
        self.ingests: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        self.refresh_fracs: List[float] = []
        self._local = threading.local()

    # -- wrappers ------------------------------------------------------
    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[name].append(time.perf_counter() - start)
        return wrapper

    def _identify_batch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._local.depth = getattr(self._local, "depth", 0) + 1
            start = time.perf_counter()
            try:
                estimates, failures, tels = fn(*args, **kwargs)
            finally:
                self.spans["core.batch.identify"].append(time.perf_counter() - start)
                self._local.depth -= 1
            self.counts["core.batch.lights"] += len(tels)
            for key in sorted(tels):
                self.report.record_light(key, tels[key], failures.get(key))
            for failure in failures.values():
                self.counts[f"core.fail.{failure.stage}"] += 1
            return estimates, failures, tels
        return wrapper

    def _spectra(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._timed("core.kernel.spectra", fn)

        def wrapper(signals: Any, *args: Any, **kwargs: Any) -> Any:
            self.counts["core.kernel.spectra_bytes"] += int(signals.nbytes)
            return timed(signals, *args, **kwargs)
        return wrapper

    def _identify_light(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(self._local, "depth", 0) > 0:
                self.counts["core.batch.fallbacks"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _ingest(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(session: StreamSession, *args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            update = fn(session, *args, **kwargs)
            end = time.perf_counter()
            self.spans["stream.ingest"].append(end - start)
            self.ingests[id(session)].append((start, end))
            self.refresh_fracs.append(len(update.refreshed) / max(len(session.store), 1))
            return update
        return wrapper

    # -- installation --------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Swap the wrappers in for the duration of the block."""
        targets = [
            (batch_mod, "identify_batch", self._identify_batch),
            (batch_mod, "spectra_batch", self._spectra),
            (batch_mod, "cycle_profile_batch",
             lambda fn: self._timed("core.kernel.profile", fn)),
            (batch_mod, "circular_moving_average_batch",
             lambda fn: self._timed("core.kernel.moving_avg", fn)),
            (pipeline_mod, "identify_light", self._identify_light),
            (PartitionStore, "append_partitions",
             lambda fn: self._timed("trace.store.append", fn)),
            (StreamSession, "ingest", self._ingest),
            (session_mod, "repair_outliers",
             lambda fn: self._timed("core.monitor.detect", fn)),
            (session_mod, "detect_plan_changes",
             lambda fn: self._timed("core.monitor.detect", fn)),
        ]
        originals = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
        try:
            for owner, name, wrap in targets:
                setattr(owner, name, wrap(getattr(owner, name)))
            yield self
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)

    # -- read-out ------------------------------------------------------
    def total(self, name: str) -> float:
        return float(sum(self.spans.get(name, ())))

    def identify_metrics(self) -> Dict[str, float]:
        """The ``core.*`` per-layer metrics gathered so far."""
        calls = len(self.spans.get("core.batch.identify", ()))
        lights = self.counts["core.batch.lights"]
        identify_s = self.total("core.batch.identify")
        stage_s = self.report.stage_s
        kernels = {
            "spectra": self.total("core.kernel.spectra"),
            "profile": self.total("core.kernel.profile"),
            "moving_avg": self.total("core.kernel.moving_avg"),
        }
        n_spectra = len(self.spans.get("core.kernel.spectra", ()))
        out: Dict[str, float] = {
            "core.batch.identify_s": identify_s,
            "core.batch.lights_per_call": lights / calls if calls else 0.0,
            "core.batch.fallback_frac": (
                self.counts["core.batch.fallbacks"] / lights if lights else 0.0
            ),
            "core.batch.accounted_frac": (
                (sum(stage_s.get(s, 0.0) for s in STAGES) + sum(kernels.values()))
                / identify_s if identify_s else 0.0
            ),
            "core.kernel.spectra_mb": (
                self.counts["core.kernel.spectra_bytes"] / n_spectra / 1e6
                if n_spectra else 0.0
            ),
        }
        for stage in STAGES:
            out[f"core.stage.{stage}_s"] = stage_s.get(stage, 0.0)
            out[f"core.fail.{stage}"] = float(self.counts[f"core.fail.{stage}"])
        for name, total in kernels.items():
            out[f"core.kernel.{name}_s"] = total
        return out


def identify_peak_mb(partitions: Any, at_time: float, keys: Any = None) -> float:
    """Peak Python-heap growth of one batched identification, MB.

    Runs on a freshly built store, so the regularized grids are computed
    rather than served from an earlier call's memo.  ``tracemalloc``
    slows allocation-heavy code severalfold, so this call is kept out of
    every timed span.
    """
    store = PartitionStore.from_partitions(dict(partitions))
    tracemalloc.start()
    try:
        batch_mod.identify_batch(store, at_time, keys=keys)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6
