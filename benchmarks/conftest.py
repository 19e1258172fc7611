"""Shared fixtures for the reproduction benches.

Each bench regenerates one table or figure of the paper and prints the
paper-vs-measured comparison.  The expensive artifacts (city
simulations and their traces) are session-scoped and shared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import simulate_and_partition
from repro.scenario import shenzhen_scenario, small_scenario
from repro.trace.store import PartitionStore


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def window_samples(partition, t0: float, t1: float, max_dist_m: float):
    """(t, speed) near one partition's stop line within ``[t0, t1)`` —
    the same extraction the pipeline's samples stage makes."""
    store = PartitionStore.from_partitions({partition.key: partition})
    return store.window_samples(partition.key, t0, t1, max_dist_m)


@pytest.fixture(scope="session")
def shenzhen():
    """The Table II scenario (ground truth for Figs. 12-14)."""
    return shenzhen_scenario()


@pytest.fixture(scope="session")
def shenzhen_data(shenzhen):
    """(trace, partitions) for 5 simulated hours of the Table II city."""
    return simulate_and_partition(shenzhen, 0.0, 5 * 3600.0, seed=42)


@pytest.fixture(scope="session")
def small_city():
    return small_scenario(cycle_s=98.0, ns_red_s=39.0, rate_per_hour=400.0)


@pytest.fixture(scope="session")
def small_city_data(small_city):
    return simulate_and_partition(small_city, 0.0, 7200.0, seed=7)
