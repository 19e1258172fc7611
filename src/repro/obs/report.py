"""Structured per-run reporting: failure taxonomy and RunReport JSON.

A citywide fan-out over thousands of lights needs an answer to "what
happened?" that survives the run: which lights produced no estimate and
why (exception class + pipeline stage + message), where the wall time
went stage by stage, and what the pipeline actually saw (samples,
stops, candidates).  ``RunReport`` aggregates the per-light
:class:`~repro.obs.telemetry.StageTelemetry` records that
``identify_many`` collects and exports one JSON document
(``repro … --report out.json``).

Schema (``repro.run_report/v1``)::

    {
      "schema":  "repro.run_report/v1",
      "runs":    <identify_many invocations aggregated>,
      "wall_s":  <total fan-out wall time, seconds>,
      "lights":  {"total": N, "ok": N, "failed": N},
      "stages":  {"<stage>": {"wall_s": s, "calls": n}, ...},
      "counters": {"<counter>": n, ...},
      "failures": {"<iid>:<approach>": {"stage": ..., "error_type": ...,
                                        "message": ...}, ...},
      "failure_taxonomy": {"<stage>/<error_type>": n, ...}
    }

``stages.wall_s`` sums *worker* time, so with W workers it can exceed
``wall_s`` by up to a factor of W — that ratio is the effective
parallel efficiency of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from .telemetry import StageTelemetry

__all__ = [
    "ChunkStats",
    "LightFailure",
    "RunReport",
    "ServiceStats",
    "ShardStats",
    "format_light_key",
]


def format_light_key(key: Any) -> str:
    """Stable string form of a light key for JSON maps (``"3:NS"``)."""
    if isinstance(key, tuple):
        return ":".join(str(part) for part in key)
    return str(key)


@dataclass(frozen=True)
class LightFailure:
    """Typed record of one light's failed identification.

    Attributes
    ----------
    error_type:
        The exception class name (``InsufficientDataError``,
        ``ValueError``, …).
    stage:
        The pipeline stage that raised (``samples``, ``stops``,
        ``cycle``, ``red``, ``superposition``, ``changepoint``,
        ``refine`` — or ``setup`` before the first stage).
    message:
        The exception message.
    """

    error_type: str
    stage: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException, stage: Optional[str]) -> "LightFailure":
        return cls(
            error_type=type(exc).__name__,
            stage=str(stage) if stage else "setup",
            message=str(exc),
        )

    @property
    def insufficient_data(self) -> bool:
        """True for expected data-poverty failures (not bugs)."""
        return self.error_type == "InsufficientDataError"

    @property
    def kind(self) -> str:
        """Taxonomy bucket: ``"<stage>/<error_type>"``."""
        return f"{self.stage}/{self.error_type}"

    def __str__(self) -> str:
        return f"[{self.stage}] {self.error_type}: {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, str]) -> "LightFailure":
        return cls(
            error_type=d["error_type"], stage=d["stage"], message=d.get("message", "")
        )


@dataclass(frozen=True)
class ChunkStats:
    """Observability record of one streaming ingest step.

    Attributes
    ----------
    chunk_index:
        0-based position in the ingest sequence.
    n_records:
        Records the chunk carried (summed over lights).
    n_touched:
        Lights that received records.
    n_dirty:
        Lights whose caches were invalidated (touched lights plus their
        enhancement-coupled perpendicular partners).
    n_refreshed:
        Lights actually re-identified during this ingest.
    wall_s:
        Ingest wall time, seconds.
    """

    chunk_index: int
    n_records: int
    n_touched: int
    n_dirty: int
    n_refreshed: int
    wall_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chunk_index": self.chunk_index,
            "n_records": self.n_records,
            "n_touched": self.n_touched,
            "n_dirty": self.n_dirty,
            "n_refreshed": self.n_refreshed,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ChunkStats":
        return cls(
            chunk_index=int(d["chunk_index"]),
            n_records=int(d["n_records"]),
            n_touched=int(d["n_touched"]),
            n_dirty=int(d["n_dirty"]),
            n_refreshed=int(d["n_refreshed"]),
            wall_s=float(d["wall_s"]),
        )


@dataclass(frozen=True)
class ShardStats:
    """Observability record of one sharded-backend work unit.

    The shard backend's two claims — balanced shards and zero-copy
    dispatch — are auditable from these records alone: ``n_records``
    should be near-uniform across shards, and ``common_bytes`` (the
    pickled size of the store handle each worker received) stays at
    metadata scale no matter how large the city's columns are, because
    the column data travels via mmap-backed files instead.

    Attributes
    ----------
    shard_index:
        0-based position in the shard fan-out.
    n_lights:
        Lights the shard carried.
    n_records:
        Store rows backing those lights (the balance weight).
    n_ok:
        Lights that produced an estimate.
    n_failed:
        Lights that landed in the failure map.
    wall_s:
        Worker-side wall time for the shard, seconds.
    common_bytes:
        Bytes of the shared store handle shipped to the worker.
    """

    shard_index: int
    n_lights: int
    n_records: int
    n_ok: int
    n_failed: int
    wall_s: float
    common_bytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_index": self.shard_index,
            "n_lights": self.n_lights,
            "n_records": self.n_records,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "wall_s": self.wall_s,
            "common_bytes": self.common_bytes,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ShardStats":
        return cls(
            shard_index=int(d["shard_index"]),
            n_lights=int(d["n_lights"]),
            n_records=int(d["n_records"]),
            n_ok=int(d["n_ok"]),
            n_failed=int(d["n_failed"]),
            wall_s=float(d["wall_s"]),
            common_bytes=int(d["common_bytes"]),
        )


@dataclass(frozen=True)
class ServiceStats:
    """Observability record of one serving tenant (``repro.serve``).

    The serving layer's two claims — readers never block ingest, and
    backpressure instead of unbounded buffering — are auditable from
    these records: ``evaluate_p99_s`` stays flat as tenants are added
    (readers only touch published snapshots), and ``queue_high_water``
    never exceeds the configured ``max_queue_depth``.

    Attributes
    ----------
    tenant:
        Tenant name.
    n_chunks:
        Chunks applied and published (the final snapshot version).
    n_records:
        Records ingested (summed over chunks).
    n_evaluates:
        Completed evaluate calls.
    n_rejected_ingest:
        Submits refused by quota (queue full under the reject policy,
        or the light budget).
    n_rejected_evaluate:
        Evaluate calls refused by the in-flight quota.
    n_dropped_chunks:
        Queued chunks discarded by a writer crash.
    queue_high_water:
        Deepest the ingest queue ever got.
    ingest_wall_s:
        Total wall time spent in chunk application proper (the
        session ingest + snapshot build), seconds — directly
        comparable to a bare ``StreamSession`` replaying the same
        chunks (the SLO bench bounds the ratio).
    ingest_lag_p50_s / ingest_lag_p99_s:
        Submit-to-publish latency percentiles, seconds.
    publish_p50_s / publish_p99_s:
        Dequeue-to-publish latency percentiles, seconds; in offload
        mode this additionally counts executor queueing behind other
        tenants' applies.
    evaluate_p50_s / evaluate_p99_s:
        Reader-observed evaluate latency percentiles, seconds — the
        numbers the SLO bench asserts against.
    """

    tenant: str
    n_chunks: int
    n_records: int
    n_evaluates: int
    n_rejected_ingest: int
    n_rejected_evaluate: int
    n_dropped_chunks: int
    queue_high_water: int
    ingest_wall_s: float
    ingest_lag_p50_s: float
    ingest_lag_p99_s: float
    publish_p50_s: float
    publish_p99_s: float
    evaluate_p50_s: float
    evaluate_p99_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "n_chunks": self.n_chunks,
            "n_records": self.n_records,
            "n_evaluates": self.n_evaluates,
            "n_rejected_ingest": self.n_rejected_ingest,
            "n_rejected_evaluate": self.n_rejected_evaluate,
            "n_dropped_chunks": self.n_dropped_chunks,
            "queue_high_water": self.queue_high_water,
            "ingest_wall_s": self.ingest_wall_s,
            "ingest_lag_p50_s": self.ingest_lag_p50_s,
            "ingest_lag_p99_s": self.ingest_lag_p99_s,
            "publish_p50_s": self.publish_p50_s,
            "publish_p99_s": self.publish_p99_s,
            "evaluate_p50_s": self.evaluate_p50_s,
            "evaluate_p99_s": self.evaluate_p99_s,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ServiceStats":
        return cls(
            tenant=str(d["tenant"]),
            n_chunks=int(d["n_chunks"]),
            n_records=int(d["n_records"]),
            n_evaluates=int(d["n_evaluates"]),
            n_rejected_ingest=int(d["n_rejected_ingest"]),
            n_rejected_evaluate=int(d["n_rejected_evaluate"]),
            n_dropped_chunks=int(d["n_dropped_chunks"]),
            queue_high_water=int(d["queue_high_water"]),
            ingest_wall_s=float(d["ingest_wall_s"]),
            ingest_lag_p50_s=float(d["ingest_lag_p50_s"]),
            ingest_lag_p99_s=float(d["ingest_lag_p99_s"]),
            publish_p50_s=float(d["publish_p50_s"]),
            publish_p99_s=float(d["publish_p99_s"]),
            evaluate_p50_s=float(d["evaluate_p50_s"]),
            evaluate_p99_s=float(d["evaluate_p99_s"]),
        )


@dataclass
class RunReport:
    """Aggregated observability record of one (or many) fan-out runs.

    Pass an instance to :func:`repro.core.pipeline.identify_many` (or
    :func:`repro.eval.harness.evaluate_at_times`) and it fills up with
    per-stage wall times, pipeline counters, and the typed failure map;
    repeated calls keep aggregating into the same report.
    """

    n_lights: int = 0
    n_ok: int = 0
    n_failed: int = 0
    runs: int = 0
    wall_s: float = 0.0
    telemetry: StageTelemetry = field(default_factory=StageTelemetry)
    failures: Dict[str, LightFailure] = field(default_factory=dict)
    chunks: List[ChunkStats] = field(default_factory=list)
    shards: List[ShardStats] = field(default_factory=list)
    services: List[ServiceStats] = field(default_factory=list)

    # -- aggregation -------------------------------------------------

    def record_chunk(self, stats: ChunkStats) -> None:
        """Fold one streaming ingest step's :class:`ChunkStats` in."""
        self.chunks.append(stats)

    def record_shard(self, stats: ShardStats) -> None:
        """Fold one sharded-backend work unit's :class:`ShardStats` in."""
        self.shards.append(stats)

    def record_service(self, stats: ServiceStats) -> None:
        """Fold one serving tenant's :class:`ServiceStats` in."""
        self.services.append(stats)

    def record_light(
        self,
        key: Any,
        telemetry: Optional[StageTelemetry] = None,
        failure: Optional[LightFailure] = None,
    ) -> None:
        """Fold one light's outcome (telemetry and/or failure) in."""
        self.n_lights += 1
        if telemetry is not None:
            self.telemetry.merge(telemetry)
        if failure is None:
            self.n_ok += 1
        else:
            self.n_failed += 1
            self.failures[format_light_key(key)] = failure

    def finish_run(self, wall_s: float) -> None:
        """Close out one ``identify_many`` invocation of *wall_s* seconds."""
        self.runs += 1
        self.wall_s += float(wall_s)

    @contextmanager
    def run_timer(self) -> Iterator["RunReport"]:
        """Time one fan-out invocation and fold it in via :meth:`finish_run`.

        The clock read lives here — in the observability layer — so the
        deterministic pipeline modules never touch the host clock
        themselves (the REP004 invariant).  The run is recorded even
        when the timed body raises.
        """
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.finish_run(time.perf_counter() - t0)

    # -- views -------------------------------------------------------

    @property
    def stage_s(self) -> Dict[str, float]:
        """Per-stage wall-time totals, seconds (summed over workers)."""
        return self.telemetry.stage_s

    @property
    def counters(self) -> Dict[str, int]:
        """Pipeline counter totals."""
        return self.telemetry.counters

    def failure_taxonomy(self) -> Dict[str, int]:
        """Failure counts bucketed by ``"<stage>/<error_type>"``."""
        tax: Dict[str, int] = {}
        for f in self.failures.values():
            tax[f.kind] = tax.get(f.kind, 0) + 1
        return tax

    def summary(self) -> str:
        """Human-readable multi-line digest (what the CLI prints)."""
        lines = [
            f"lights: {self.n_lights}  ok: {self.n_ok}  failed: {self.n_failed}"
            f"  (runs: {self.runs}, wall: {self.wall_s:.2f}s)"
        ]
        if self.stage_s:
            total = max(self.telemetry.total_s(), 1e-12)
            lines.append("stage wall time (worker-summed):")
            for name, s in sorted(self.stage_s.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {name:<14} {s:8.3f}s  {100 * s / total:5.1f}%")
        if self.failures:
            lines.append("failure taxonomy:")
            for kind, n in sorted(self.failure_taxonomy().items()):
                lines.append(f"  {kind:<40} {n}")
        return "\n".join(lines)

    # -- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.run_report/v1",
            "runs": self.runs,
            "wall_s": self.wall_s,
            "lights": {
                "total": self.n_lights,
                "ok": self.n_ok,
                "failed": self.n_failed,
            },
            "stages": {
                name: {
                    "wall_s": self.telemetry.stage_s[name],
                    "calls": self.telemetry.stage_calls.get(name, 0),
                }
                for name in sorted(self.telemetry.stage_s)
            },
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "failures": {
                key: f.to_dict() for key, f in sorted(self.failures.items())
            },
            "failure_taxonomy": self.failure_taxonomy(),
            # Optional sections: present only for streaming- or
            # shard-backend runs, so one-shot reports keep the exact v1
            # document shape.
            **(
                {"chunks": [c.to_dict() for c in self.chunks]}
                if self.chunks
                else {}
            ),
            **(
                {"shards": [s.to_dict() for s in self.shards]}
                if self.shards
                else {}
            ),
            **(
                {"services": [s.to_dict() for s in self.services]}
                if self.services
                else {}
            ),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path: Union[str, "object"]) -> None:
        """Write the JSON document to *path*."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json())
            fp.write("\n")

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunReport":
        tel = StageTelemetry(
            stage_s={k: float(v["wall_s"]) for k, v in d.get("stages", {}).items()},
            stage_calls={k: int(v["calls"]) for k, v in d.get("stages", {}).items()},
            counters={k: int(v) for k, v in d.get("counters", {}).items()},
        )
        lights = d.get("lights", {})
        return cls(
            n_lights=int(lights.get("total", 0)),
            n_ok=int(lights.get("ok", 0)),
            n_failed=int(lights.get("failed", 0)),
            runs=int(d.get("runs", 0)),
            wall_s=float(d.get("wall_s", 0.0)),
            telemetry=tel,
            failures={
                key: LightFailure.from_dict(f)
                for key, f in d.get("failures", {}).items()
            },
            chunks=[ChunkStats.from_dict(c) for c in d.get("chunks", [])],
            shards=[ShardStats.from_dict(s) for s in d.get("shards", [])],
            services=[ServiceStats.from_dict(s) for s in d.get("services", [])],
        )

    @classmethod
    def load(cls, path: Union[str, "object"]) -> "RunReport":
        """Read a report back from a ``--report`` JSON file."""
        with open(path, encoding="utf-8") as fp:
            return cls.from_dict(json.load(fp))
