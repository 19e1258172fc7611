"""Shared fixtures: one small simulated city reused across test modules.

Simulation + trace generation is the expensive part of the stack, so the
heavyweight artifacts are session-scoped; tests must treat them as
read-only.  Every test also runs under a hang watchdog.
"""

from __future__ import annotations

import faulthandler
import hashlib
import os

import numpy as np
import pytest

from repro.eval import simulate_and_partition
from repro.scenario import small_scenario

#: Seconds one test may run before the watchdog dumps every thread's
#: stack and exits the run with status 1.  The slowest test takes
#: about 5 s; a deadlocked writer task would otherwise hang the suite
#: until CI's job timeout with no hint of where it stuck.
LIMIT_S = 300.0

#: The terminal's stderr, duplicated before any test captures fd 2.
_WATCHDOG_FD = pytest.StashKey[int]()


def pytest_configure(config):
    """Keep a handle on the real stderr for the watchdog's dump.

    Output capture is suspended while this hook runs, so fd 2 is the
    terminal here; inside a test it is pytest's capture file, which a
    process exiting from the watchdog would never print.
    """
    config.stash[_WATCHDOG_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_WATCHDOG_FD])


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    """Arm the watchdog for the test's duration."""
    faulthandler.dump_traceback_later(
        LIMIT_S, exit=True, file=request.config.stash[_WATCHDOG_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def city():
    """The canonical 2×2 test city (known ground truth)."""
    return small_scenario(cycle_s=98.0, ns_red_s=39.0, rate_per_hour=400.0, seed=0)


def _fingerprint(trace, parts):
    """Digest of every array in the shared artifacts (read-only guard)."""
    digest = hashlib.sha256()
    for name in trace.COLUMNS:
        digest.update(getattr(trace, name).tobytes())
    for key in sorted(parts):
        p = parts[key]
        digest.update(repr(key).encode())
        for name in p.trace.COLUMNS:
            digest.update(getattr(p.trace, name).tobytes())
        digest.update(p.segment_id.tobytes())
        digest.update(p.dist_to_stopline_m.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="session")
def city_data(city):
    """(trace, partitions) for 1.5 simulated hours of the test city."""
    trace, parts = simulate_and_partition(city, 0.0, 5400.0, seed=7)
    before = _fingerprint(trace, parts)
    yield trace, parts
    assert _fingerprint(trace, parts) == before, (
        "a test mutated the session-scoped city fixture in place "
        "(write-through-a-view bug); copy before writing"
    )


@pytest.fixture(scope="session")
def trace(city_data):
    """Raw Table I trace of the test city."""
    return city_data[0]


@pytest.fixture(scope="session")
def partitions(city_data):
    """Per-light partitions of the test city."""
    return city_data[1]


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _guard_global_numpy_rng():
    """Fail any test that mutates the legacy global NumPy RNG.

    Library and test code must draw randomness from explicit
    ``Generator`` objects (the ``rng`` fixture, ``as_rng``); touching
    ``np.random.*`` module-level functions reorders every later draw
    and is the classic source of order-dependent flakes.
    """
    before = np.random.get_state()
    yield
    after = np.random.get_state()
    same = before[0] == after[0] and all(
        np.array_equal(b, a) for b, a in zip(before[1:], after[1:])
    )
    assert same, (
        "test mutated the global NumPy RNG state; use an explicit "
        "np.random.Generator (e.g. the `rng` fixture) instead"
    )
