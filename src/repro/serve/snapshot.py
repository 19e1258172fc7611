"""Immutable published snapshots: the reader half of the serve protocol.

A :class:`Snapshot` is the unit of snapshot isolation: the writer task
builds a fresh one after every applied chunk and publishes it with a
single attribute assignment, so any number of concurrent readers serve
the *last published* version without taking a lock and without ever
observing a half-applied ingest.  All mappings are wrapped in
:class:`types.MappingProxyType` — a snapshot handed to a reader can
never change under it.

Alongside the estimates themselves, a snapshot records per-light
*provenance* — the data version each estimate was computed from and the
time it was evaluated at — which is what makes the isolation property
mechanically checkable: for every light, a fresh batched run over the
same rows at the recorded eval time must reproduce the published
estimate bit-for-bit (``tests/test_serve_isolation.py``).

Publish-once holds by construction, not by convention: the dataclass is
frozen, every map is a read-only proxy over a private copy, and
``plan_changes`` values are tuples, so any write to a published
snapshot raises where it happens (``test_serve.py`` pins this field by
field).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.monitor import PlanChange
from ..core.signal_types import ScheduleEstimate
from ..matching.partition import LightKey
from ..obs import LightFailure

__all__ = ["Snapshot"]

#: One per-light result-cache entry as exported by
#: :meth:`repro.stream.session.StreamSession.results_view`.
_CacheEntry = Tuple[int, float, Optional[ScheduleEstimate], Optional[LightFailure]]


def _frozen(mapping: Mapping) -> Mapping:  # type: ignore[type-arg]
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class Snapshot:
    """One atomically published view of a tenant's identification state.

    Attributes
    ----------
    tenant:
        Name of the tenant this snapshot belongs to.
    version:
        Publish sequence number: the count of chunks applied when this
        snapshot was built (``0`` for the pre-ingest initial snapshot).
        Strictly monotonic per tenant — a reader that ever observes a
        smaller version than one it already saw has hit a stale-read
        violation (the load harness counts these; the count must be 0).
    at_time:
        Evaluation time of the most recent refresh (``None`` before any
        data arrived).
    n_records:
        Cumulative records ingested up to this snapshot.
    estimates / failures:
        The tenant's full current view, disjoint by construction: a
        light appears in exactly one of the two (or neither, before its
        first refresh).
    eval_times / data_versions:
        Per-light provenance: the time each light's entry was evaluated
        at and the store version its rows carried when the kernels ran.
        A light untouched by recent chunks keeps an older eval time —
        its rows have not changed, so the estimate is still exact for
        them (the replay-parity contract).
    plan_changes:
        All scheduling changes the online monitor has detected so far,
        cumulative per light.
    """

    tenant: str
    version: int
    at_time: Optional[float]
    n_records: int
    estimates: Mapping[LightKey, ScheduleEstimate] = field(
        default_factory=lambda: _frozen({})
    )
    failures: Mapping[LightKey, LightFailure] = field(
        default_factory=lambda: _frozen({})
    )
    eval_times: Mapping[LightKey, float] = field(default_factory=lambda: _frozen({}))
    data_versions: Mapping[LightKey, int] = field(default_factory=lambda: _frozen({}))
    plan_changes: Mapping[LightKey, Tuple[PlanChange, ...]] = field(
        default_factory=lambda: _frozen({})
    )

    @classmethod
    def initial(cls, tenant: str) -> "Snapshot":
        """The version-0 snapshot a tenant serves before any ingest."""
        return cls(tenant=tenant, version=0, at_time=None, n_records=0)

    @classmethod
    def from_results(
        cls,
        tenant: str,
        *,
        version: int,
        at_time: Optional[float],
        n_records: int,
        results: Mapping[LightKey, _CacheEntry],
        plan_changes: Mapping[LightKey, List[PlanChange]],
    ) -> "Snapshot":
        """Build one publishable snapshot from a session's result cache."""
        estimates: Dict[LightKey, ScheduleEstimate] = {}
        failures: Dict[LightKey, LightFailure] = {}
        eval_times: Dict[LightKey, float] = {}
        data_versions: Dict[LightKey, int] = {}
        for key in sorted(results):
            data_version, eval_time, est, fail = results[key]
            if est is None and fail is None:
                continue
            eval_times[key] = eval_time
            data_versions[key] = data_version
            if est is not None:
                estimates[key] = est
            elif fail is not None:
                failures[key] = fail
        return cls(
            tenant=tenant,
            version=version,
            at_time=at_time,
            n_records=n_records,
            estimates=_frozen(estimates),
            failures=_frozen(failures),
            eval_times=_frozen(eval_times),
            data_versions=_frozen(data_versions),
            plan_changes=_frozen(
                {key: tuple(val) for key, val in sorted(plan_changes.items())}
            ),
        )

    def integrity_errors(self) -> List[str]:
        """Structural consistency violations (a torn snapshot is a bug).

        An atomically built snapshot can never fail these; the load
        harness runs the check on every read it samples so a torn
        (mixed-publish) map would surface as a counted violation rather
        than as silent bad advisories.
        """
        problems: List[str] = []
        overlap = set(self.estimates) & set(self.failures)
        if overlap:
            problems.append(f"lights in both estimates and failures: {sorted(overlap)}")
        resolved = set(self.estimates) | set(self.failures)
        if resolved != set(self.eval_times):
            problems.append("eval_times keys do not match resolved lights")
        if resolved != set(self.data_versions):
            problems.append("data_versions keys do not match resolved lights")
        if self.version == 0 and resolved:
            problems.append("version-0 snapshot carries results")
        return problems
