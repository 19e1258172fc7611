"""Replay-parity oracle: streamed ingest ≡ one-shot batched, bit-for-bit.

The binding contract of the streaming backend (see
:mod:`repro.stream.session`): for traces with unique per-light report
timestamps, ingesting **any** permutation/partitioning of a scenario's
records chunk-by-chunk must leave the session in a state whose estimates
are bit-for-bit identical to the one-shot batched backend over the same
records — same estimate numbers, same failure stages/types/messages.

These are metamorphic tests: the batched run is the oracle, and many
seeded random chunkings (random chunk count, random per-row chunk
assignment, rows shuffled within each chunk) are the transformed inputs.
"""

import numpy as np
import pytest

from repro.core import identify_many
from repro.matching.partition import LightPartition
from repro.scenario import synthetic_lights, synthetic_partitions
from repro.stream import StreamSession, split_by_time, split_random

from tests.test_batch_parity import _assert_parity, _est_tuple, _poisoned_city

#: Seeded draws for the metamorphic sweep (ISSUE: at least 20).
PARITY_SEEDS = list(range(24))


def _stream_replay(partitions, chunks, at_time, *, refresh_each=False):
    """Ingest ``chunks`` in order; return (estimates, failures) at ``at_time``."""
    session = StreamSession(monitor=False)
    for chunk in chunks:
        session.ingest(chunk, at_time=at_time, refresh=refresh_each)
    return session.evaluate(at_time)


@pytest.fixture(scope="module")
def synthetic_city():
    """A 16-light closed-form city (fast, no simulator involved)."""
    lights = synthetic_lights(8, seed=11)
    return synthetic_partitions(lights, 0.0, 5400.0, seed=11)


class TestReplayParityOracle:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_chunking_matches_batched(self, partitions, seed):
        """The oracle itself: ≥20 seeded random permutations/partitions."""
        rng = np.random.default_rng(seed)
        n_chunks = int(rng.integers(1, 8))
        chunks = split_random(partitions, n_chunks, rng=rng)
        ref = identify_many(partitions, 5400.0, backend="batched")
        out = _stream_replay(partitions, chunks, 5400.0)
        _assert_parity(ref, out, f"stream/random seed={seed}")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_chunking_synthetic_city(self, synthetic_city, seed):
        rng = np.random.default_rng(100 + seed)
        chunks = split_random(synthetic_city, int(rng.integers(2, 10)), rng=rng)
        ref = identify_many(synthetic_city, 5400.0, backend="batched")
        assert len(ref[0]) > 0
        out = _stream_replay(synthetic_city, chunks, 5400.0)
        _assert_parity(ref, out, f"stream/synthetic seed={seed}")

    def test_time_sliced_replay_with_intermediate_refreshes(self, partitions):
        """Refreshing after every chunk must not disturb the final state."""
        edges = list(np.linspace(0.0, 5401.0, 7))
        chunks = split_by_time(partitions, edges)
        ref = identify_many(partitions, 5400.0, backend="batched")
        out = _stream_replay(partitions, chunks, 5400.0, refresh_each=True)
        _assert_parity(ref, out, "stream/time-sliced+refresh")

    def test_single_chunk_equals_batched(self, partitions):
        ref = identify_many(partitions, 5400.0, backend="batched")
        out = _stream_replay(partitions, [dict(partitions)], 5400.0)
        _assert_parity(ref, out, "stream/one-chunk")

    def test_chunk_order_against_serial_reference(self, partitions):
        """Transitivity spot-check: the stream also matches plain serial."""
        rng = np.random.default_rng(7)
        chunks = split_random(partitions, 4, rng=rng)
        ref = identify_many(partitions, 5400.0, backend="serial")
        out = _stream_replay(partitions, chunks, 5400.0)
        _assert_parity(ref, out, "stream/vs-serial")


class TestPoisonedReplayParity:
    def test_poisoned_chunk_keeps_parity_for_unaffected_lights(self, partitions):
        """A corrupt chunk fails its light identically to the batched run
        and leaves every other light bit-for-bit intact."""
        city, bad_key, dead_key = _poisoned_city(partitions)
        ref = identify_many(city, 5400.0, backend="batched")
        assert bad_key in ref[1] and dead_key in ref[1]

        # the corrupt partition cannot be row-sliced (that is the point),
        # so it arrives whole in one chunk while everything else streams
        rng = np.random.default_rng(13)
        healthy = {k: v for k, v in city.items() if k != bad_key}
        chunks = split_random(healthy, 5, rng=rng)
        chunks[2][bad_key] = city[bad_key]
        out = _stream_replay(city, chunks, 5400.0, refresh_each=True)
        _assert_parity(ref, out, "stream/poisoned")

    def test_late_poison_does_not_disturb_healthy_lights(self, partitions):
        """Healthy first, then a poisoned chunk arrives for one light."""
        ref = identify_many(partitions, 5400.0, backend="batched")
        session = StreamSession(monitor=False)
        session.ingest(dict(partitions), at_time=5400.0)
        bad_key = sorted(partitions)[0]
        p = partitions[bad_key]
        session.ingest(
            {
                bad_key: LightPartition(
                    p.intersection_id, p.approach, p.trace,
                    p.segment_id, np.empty(3),
                )
            },
            at_time=5400.0,
        )
        est, fail = session.evaluate(5400.0)
        assert bad_key in fail, "the poisoned light must now fail"
        partner = (bad_key[0], "EW" if bad_key[1] == "NS" else "NS")
        for key, val in ref[0].items():
            if key in (bad_key, partner):
                continue  # partner re-runs against the quarantined data
            assert _est_tuple(est[key]) == _est_tuple(val), key


class TestUniqueTimestampPrecondition:
    def test_fixture_city_has_unique_per_light_timestamps(self, partitions):
        """The contract's precondition holds for generated traces."""
        for key, part in partitions.items():
            t = np.asarray(part.trace.t)
            assert len(np.unique(t)) == len(t), key

    def test_synthetic_city_has_unique_per_light_timestamps(self, synthetic_city):
        for key, part in synthetic_city.items():
            t = np.asarray(part.trace.t)
            assert len(np.unique(t)) == len(t), key


@pytest.fixture(scope="module")
def adaptive_synthetic_city():
    """Demand-responsive closed-form city (same spec as the batch-parity
    and golden adaptive scenarios)."""
    from repro.scenario import adaptive_synthetic_lights

    lights = adaptive_synthetic_lights(3, alpha=0.6, kind="gap", seed=5)
    return synthetic_partitions(lights, 0.0, 5400.0, seed=5)


class TestAdaptiveReplayParity:
    """The replay-parity oracle extends to adaptive traces: any chunking
    of a demand-responsive city converges bit-for-bit to batched."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_chunking_adaptive_city(self, adaptive_synthetic_city, seed):
        rng = np.random.default_rng(200 + seed)
        chunks = split_random(
            adaptive_synthetic_city, int(rng.integers(2, 10)), rng=rng
        )
        ref = identify_many(adaptive_synthetic_city, 5400.0, backend="batched")
        assert len(ref[0]) > 0
        out = _stream_replay(adaptive_synthetic_city, chunks, 5400.0)
        _assert_parity(ref, out, f"stream/adaptive seed={seed}")

    def test_adaptive_city_has_unique_per_light_timestamps(
        self, adaptive_synthetic_city
    ):
        """The order-independence precondition survives adaptive plans."""
        for key, part in adaptive_synthetic_city.items():
            t = np.asarray(part.trace.t)
            assert len(np.unique(t)) == len(t), key
