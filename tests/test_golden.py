"""Golden-fixture regression: pipeline outputs vs committed snapshots.

The committed fixtures in ``tests/golden/`` pin the **exact** float64
estimates, and every failure's stage, error type and message, of the
seeded scenarios in ``tests/golden/scenarios.py``.  Comparison is pure
equality on the JSON-round-tripped payload — IEEE-754 doubles survive
the shortest-repr round trip bit-for-bit, so any numeric change
anywhere in the stack shows up as a hard diff here.  Regenerate deliberately with
``python -m tests.golden.regen`` (never from inside a test).
"""

import json

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


def _diff(expected, actual):
    """Human-readable first-differences between two fixture payloads."""
    lines = []
    for section in ("estimates", "failures"):
        exp, act = expected[section], actual[section]
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
