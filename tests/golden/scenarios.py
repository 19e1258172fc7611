"""The seeded scenarios behind the golden fixtures, and their payloads.

Everything that defines a fixture lives here — scenario parameters,
pipeline invocation, and the JSON payload layout — so the regeneration
script and the regression test cannot drift apart.  Floats are stored
via ``json`` (shortest-repr), which round-trips IEEE-754 doubles
exactly: the comparison in ``tests/test_golden.py`` is bitwise.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass, replace
from typing import Dict, Tuple, Union

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent


@dataclass(frozen=True)
class GoldenScenario:
    """One seeded end-to-end run pinned by a committed fixture."""

    name: str
    cycle_s: float
    ns_red_s: float
    rate_per_hour: float
    scenario_seed: int
    sim_seed: int
    horizon_s: float
    at_time: float

    @property
    def path(self) -> pathlib.Path:
        return FIXTURE_DIR / f"golden_{self.name}.json"


#: Three small cities spanning short/medium/long cycles.  ``a`` matches
#: the session-scoped ``city_data`` fixture so the regression test can
#: reuse it instead of re-simulating.
GOLDEN_SCENARIOS: Tuple[GoldenScenario, ...] = (
    GoldenScenario("a", 98.0, 39.0, 400.0, 0, 7, 5400.0, 5400.0),
    GoldenScenario("b", 80.0, 30.0, 300.0, 1, 11, 4800.0, 4800.0),
    GoldenScenario("c", 120.0, 50.0, 350.0, 2, 23, 5400.0, 5000.0),
)


@dataclass(frozen=True)
class AdaptiveGoldenScenario:
    """One seeded demand-responsive run pinned by a committed fixture.

    Same contract as :class:`GoldenScenario`, but the lights run adaptive
    controllers (``repro.scenario.adaptive_synthetic_lights``): the
    fixture pins the identify pipeline on a drifting realized schedule,
    not just the fixed plans the paper assumes.
    """

    name: str
    n_intersections: int
    alpha: float
    kind: str
    seed: int
    horizon_s: float
    at_time: float

    @property
    def path(self) -> pathlib.Path:
        return FIXTURE_DIR / f"golden_{self.name}.json"


#: Matches the adaptive parity fixtures in the batch/stream suites, so
#: the pinned numbers cover the exact scenario those suites replay.
ADAPTIVE_GOLDEN_SCENARIOS: Tuple[AdaptiveGoldenScenario, ...] = (
    AdaptiveGoldenScenario("adaptive", 3, 0.6, "gap", 5, 5400.0, 5400.0),
)

@dataclass(frozen=True)
class SparseGoldenScenario:
    """One seeded sparse synthetic city pinned by a committed fixture.

    Same contract as :class:`GoldenScenario`, on the closed-form visit
    model (``repro.scenario.synthetic_partitions``) at a taxi rate low
    enough that some lights fail: the fixture pins each failure's
    stage, error type and message as well as the estimates.
    """

    name: str
    n_intersections: int
    rate_per_hour: float
    seed: int
    horizon_s: float
    at_time: float

    @property
    def path(self) -> pathlib.Path:
        return FIXTURE_DIR / f"golden_{self.name}.json"


#: Nine estimates and three red-stage data-poverty failures.
SPARSE_GOLDEN_SCENARIOS: Tuple[SparseGoldenScenario, ...] = (
    SparseGoldenScenario("sparse", 6, 40.0, 9, 5400.0, 5400.0),
)

AnyGoldenScenario = Union[GoldenScenario, AdaptiveGoldenScenario, SparseGoldenScenario]

ALL_GOLDEN_SCENARIOS: Tuple["AnyGoldenScenario", ...] = (
    GOLDEN_SCENARIOS + ADAPTIVE_GOLDEN_SCENARIOS + SPARSE_GOLDEN_SCENARIOS
)


@dataclass(frozen=True)
class MonitorGoldenScenario:
    """One seeded §VII monitoring run pinned by a committed fixture.

    A synthetic city whose every light switches plan at ``switch_at_s``
    (``repro.scenario.synthetic_lights``), monitored by
    :func:`repro.core.monitor.monitor_cycle`.  Light ``0:NS`` reports
    nothing during ``dark_s``, so some of its windows are too sparse and
    its series holds gaps.  The fixture pins every light's series and the
    cycle-scan counters its windows accumulate.
    """

    name: str
    n_intersections: int
    rate_per_hour: float
    seed: int
    switch_at_s: float
    horizon_s: float
    every_s: float
    window_s: float
    dark_s: Tuple[float, float]

    @property
    def path(self) -> pathlib.Path:
        return FIXTURE_DIR / f"golden_{self.name}.json"


MONITOR_GOLDEN_SCENARIOS: Tuple[MonitorGoldenScenario, ...] = (
    MonitorGoldenScenario(
        "monitor", 2, 240.0, 4, 4500.0, 7200.0, 300.0, 1800.0, (2400.0, 4500.0)
    ),
)

#: The counters a light's cycle scans leave in its telemetry.
SCAN_COUNTERS = (
    "cycle_candidates_scanned",
    "cycle_refine_scans",
    "cycle_subharmonic_scans",
)


def build_partitions(spec: AnyGoldenScenario):
    """Simulate the scenario and partition its trace (deterministic)."""
    if isinstance(spec, AdaptiveGoldenScenario):
        from repro.scenario import adaptive_synthetic_lights, synthetic_partitions

        lights = adaptive_synthetic_lights(
            spec.n_intersections, alpha=spec.alpha, kind=spec.kind, seed=spec.seed
        )
        return synthetic_partitions(lights, 0.0, spec.horizon_s, seed=spec.seed)
    if isinstance(spec, SparseGoldenScenario):
        from repro.scenario import synthetic_lights, synthetic_partitions

        lights = synthetic_lights(spec.n_intersections, seed=spec.seed)
        return synthetic_partitions(
            lights, 0.0, spec.horizon_s,
            rate_per_hour=spec.rate_per_hour, seed=spec.seed,
        )

    from repro.eval import simulate_and_partition
    from repro.scenario import small_scenario

    city = small_scenario(
        cycle_s=spec.cycle_s,
        ns_red_s=spec.ns_red_s,
        rate_per_hour=spec.rate_per_hour,
        seed=spec.scenario_seed,
    )
    _trace, partitions = simulate_and_partition(
        city, 0.0, spec.horizon_s, seed=spec.sim_seed
    )
    return partitions


def compute_payload(spec: AnyGoldenScenario, partitions=None) -> Dict:
    """The fixture payload for ``spec`` (batched backend, full pipeline)."""
    from repro.core import identify_many

    if partitions is None:
        partitions = build_partitions(spec)
    estimates, failures = identify_many(
        partitions, spec.at_time, backend="batched"
    )
    return payload_of(spec, estimates, failures)


def payload_of(spec: AnyGoldenScenario, estimates, failures) -> Dict:
    """The fixture payload layout of one identification result."""
    payload: Dict = {
        "scenario": asdict(spec),
        "estimates": {},
        "failures": {},
    }
    for (iid, approach) in sorted(estimates):
        est = estimates[(iid, approach)]
        payload["estimates"][f"{iid}:{approach}"] = {
            "cycle_s": est.cycle_s,
            "red_s": est.red_s,
            "green_s": est.green_s,
            "offset_s": est.schedule.offset_s,
            "red_to_green_s": est.change.red_to_green_s,
            "green_to_red_s": est.change.green_to_red_s,
        }
    for (iid, approach) in sorted(failures):
        fail = failures[(iid, approach)]
        payload["failures"][f"{iid}:{approach}"] = {
            "stage": fail.stage,
            "error_type": fail.error_type,
            "message": fail.message,
        }
    return payload


def build_monitor_partitions(spec: MonitorGoldenScenario):
    """The monitored city's partitions (deterministic)."""
    from repro.scenario import synthetic_lights, synthetic_partitions

    lights = synthetic_lights(
        spec.n_intersections, seed=spec.seed, switch_at_s=spec.switch_at_s
    )
    dark_lo, dark_hi = spec.dark_s
    return synthetic_partitions(
        lights, 0.0, spec.horizon_s,
        rate_per_hour=spec.rate_per_hour, seed=spec.seed,
        active={(0, "NS"): [(0.0, dark_lo), (dark_hi, spec.horizon_s)]},
    )


def _json_float(x: float):
    """``None`` for NaN (NaN never compares equal), else the float."""
    return None if math.isnan(x) else float(x)


def compute_monitor_payload(spec: MonitorGoldenScenario, partitions=None) -> Dict:
    """The monitor fixture payload: each light's series and scan counters.

    The series come from :func:`repro.core.monitor.monitor_cycle`.  The
    counters come from re-running its windows through
    :func:`repro.core.batch.identify_cycles` under the monitor's config,
    summing each light's telemetry.
    """
    from repro.core.batch import identify_cycles
    from repro.core.monitor import MONITOR_CONFIG, monitor_cycle
    from repro.obs import StageTelemetry
    from repro.trace.store import PartitionStore

    if partitions is None:
        partitions = build_monitor_partitions(spec)
    store = PartitionStore.from_partitions(partitions)
    monitored = monitor_cycle(
        store, 0.0, spec.horizon_s, every_s=spec.every_s, window_s=spec.window_s
    )
    config = replace(MONITOR_CONFIG, window_s=spec.window_s)
    tels = {key: StageTelemetry() for key in store}
    for tau in next(iter(monitored.values())).t:
        _, _, window_tels = identify_cycles(store, float(tau), config=config)
        for key, tel in window_tels.items():
            tels[key].merge(tel)
    payload: Dict = {"scenario": asdict(spec), "lights": {}}
    for (iid, approach), series in sorted(monitored.items()):
        payload["lights"][f"{iid}:{approach}"] = {
            "t": [float(x) for x in series.t],
            "cycle_s": [_json_float(x) for x in series.cycle_s],
            "quality": [_json_float(x) for x in series.quality],
            "n_errors": series.n_errors,
            "counters": {
                name: tels[(iid, approach)].counters.get(name, 0)
                for name in SCAN_COUNTERS
            },
        }
    return payload


def load_fixture(spec: Union[AnyGoldenScenario, MonitorGoldenScenario]) -> Dict:
    with open(spec.path, encoding="utf-8") as fp:
        return json.load(fp)


def save_fixture(
    spec: Union[AnyGoldenScenario, MonitorGoldenScenario], payload: Dict
) -> None:
    with open(spec.path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
