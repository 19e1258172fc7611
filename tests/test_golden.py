"""Golden-fixture regression: pipeline outputs vs committed snapshots.

The committed fixtures in ``tests/golden/`` pin the **exact** float64
estimates, and every failure's stage, error type and message, of the
seeded scenarios in ``tests/golden/scenarios.py``.  Comparison is pure
equality on the JSON-round-tripped payload — IEEE-754 doubles survive
the shortest-repr round trip bit-for-bit, so any numeric change
anywhere in the stack shows up as a hard diff here.  Regenerate deliberately with
``python -m tests.golden.regen`` (never from inside a test).

The same payloads are also recomputed in fresh interpreters under fixed
``PYTHONHASHSEED`` values: an estimate that follows the iteration order
of a set of strings (or of ``LightKey`` tuples) moves with the hash
seed, and a fixed pair of seeds makes such a dependence fail on every
run instead of only when the run's random seed happens to differ from
the one that wrote the fixture.  Those interpreters block scipy, so
they also show that no golden needs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.golden.scenarios import (
    ALL_GOLDEN_SCENARIOS,
    MONITOR_GOLDEN_SCENARIOS,
    build_partitions,
    compute_monitor_payload,
    compute_payload,
    load_fixture,
    payload_of,
)

_BY_NAME = {spec.name: spec for spec in ALL_GOLDEN_SCENARIOS}

_ROOT = Path(__file__).resolve().parents[1]

#: Two fixed hash seeds; an order-dependent estimate cannot match the
#: committed fixture under both.
HASH_SEEDS = ("0", "1")

#: Bound on one recompute, which takes about 5 s on two cores.
RECOMPUTE_TIMEOUT_S = 120

#: Recomputes every golden payload and prints them as one JSON object,
#: with scipy unimportable: scipy is a test-only dependency, so every
#: golden must come out exact without it.
_RECOMPUTE = (
    "import json, sys\n"
    "sys.modules['scipy'] = None\n"
    "from tests.golden.scenarios import (\n"
    "    ALL_GOLDEN_SCENARIOS, MONITOR_GOLDEN_SCENARIOS,\n"
    "    compute_monitor_payload, compute_payload)\n"
    "payloads = {s.name: compute_payload(s) for s in ALL_GOLDEN_SCENARIOS}\n"
    "payloads.update(\n"
    "    {s.name: compute_monitor_payload(s) for s in MONITOR_GOLDEN_SCENARIOS})\n"
    "json.dump(payloads, sys.stdout)\n"
)


def _diff(expected, actual):
    """Human-readable first-differences between two fixture payloads."""
    lines = []
    for section in ("estimates", "failures", "lights"):
        exp, act = expected.get(section, {}), actual.get(section, {})
        for key in sorted(set(exp) | set(act)):
            if exp.get(key) != act.get(key):
                lines.append(f"{section}[{key}]: {exp.get(key)} != {act.get(key)}")
    return "\n".join(lines) or "payloads differ outside estimates/failures"


@pytest.fixture(scope="module")
def golden_partitions(partitions):
    """Partitions per scenario; ``a`` reuses the session city fixture."""

    def build(spec):
        if spec.name == "a":
            return partitions
        return build_partitions(spec)

    return build


class TestGoldenFixtures:
    def test_all_fixtures_exist(self):
        for spec in ALL_GOLDEN_SCENARIOS + MONITOR_GOLDEN_SCENARIOS:
            assert spec.path.exists(), (
                f"missing fixture {spec.path}; run "
                "`PYTHONPATH=src python -m tests.golden.regen`"
            )

    @pytest.mark.parametrize("name", sorted(_BY_NAME))
    def test_pipeline_matches_fixture_exactly(self, name, golden_partitions):
        spec = _BY_NAME[name]
        expected = load_fixture(spec)
        actual = json.loads(json.dumps(compute_payload(
            spec, golden_partitions(spec)
        )))
        assert expected["scenario"] == actual["scenario"], (
            "scenario parameters drifted from the committed fixture"
        )
        assert expected == actual, _diff(expected, actual)

    @pytest.mark.parametrize("name", sorted(_BY_NAME))
    def test_stream_backend_matches_fixture_exactly(self, name, golden_partitions):
        """The replay-parity contract extends to the committed numbers."""
        from repro.stream import StreamSession

        spec = _BY_NAME[name]
        expected = load_fixture(spec)
        session = StreamSession(monitor=False)
        session.ingest(dict(golden_partitions(spec)), refresh=False)
        estimates, failures = session.evaluate(spec.at_time)
        actual = json.loads(json.dumps(payload_of(spec, estimates, failures)))
        assert expected == actual, _diff(expected, actual)

    @pytest.mark.parametrize("name", sorted(_BY_NAME))
    def test_shard_backend_matches_fixture_exactly(self, name, golden_partitions):
        """Zero-copy sharding must not move a single committed bit."""
        from repro.core import identify_many

        spec = _BY_NAME[name]
        expected = load_fixture(spec)
        estimates, failures = identify_many(
            golden_partitions(spec), spec.at_time, backend="shard", max_workers=1
        )
        actual = json.loads(json.dumps(payload_of(spec, estimates, failures)))
        assert expected == actual, _diff(expected, actual)

    def test_fixture_floats_roundtrip_exactly(self):
        """The storage format itself cannot lose precision."""
        for spec in ALL_GOLDEN_SCENARIOS + MONITOR_GOLDEN_SCENARIOS:
            payload = load_fixture(spec)
            assert json.loads(json.dumps(payload)) == payload


class TestMonitorFixture:
    """§VII monitoring: each light's 5-min series and its scan counters."""

    @pytest.mark.parametrize("spec", MONITOR_GOLDEN_SCENARIOS, ids=lambda s: s.name)
    def test_monitor_matches_fixture_exactly(self, spec):
        expected = load_fixture(spec)
        actual = json.loads(json.dumps(compute_monitor_payload(spec)))
        assert expected["scenario"] == actual["scenario"], (
            "scenario parameters drifted from the committed fixture"
        )
        for light in sorted(set(expected["lights"]) | set(actual["lights"])):
            assert expected["lights"].get(light) == actual["lights"].get(light), light


class TestHashSeedIndependence:
    """Every golden, recomputed under fixed ``PYTHONHASHSEED`` values."""

    def test_goldens_match_under_fixed_hash_seeds(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_ROOT / "src"), str(_ROOT), env.get("PYTHONPATH")])
        )
        # both interpreters run at once: the test costs one recompute
        procs = {
            seed: subprocess.Popen(
                [sys.executable, "-c", _RECOMPUTE],
                env={**env, "PYTHONHASHSEED": seed},
                cwd=_ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in HASH_SEEDS
        }
        try:
            outputs = {
                seed: proc.communicate(timeout=RECOMPUTE_TIMEOUT_S)
                for seed, proc in procs.items()
            }
        finally:
            for proc in procs.values():
                proc.kill()  # a no-op once the process has exited
                proc.wait()
        for seed, (out, err) in outputs.items():
            assert procs[seed].returncode == 0, err
            payloads = json.loads(out)
            for spec in ALL_GOLDEN_SCENARIOS + MONITOR_GOLDEN_SCENARIOS:
                expected = load_fixture(spec)
                assert payloads[spec.name] == expected, (
                    f"PYTHONHASHSEED={seed}, golden_{spec.name}:\n"
                    + _diff(expected, payloads[spec.name])
                )
