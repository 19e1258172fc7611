"""Async-discipline rules (REP012, REP013, REP015, REP016): fixtures and canaries.

Per-rule fire/clean fixtures run synthetic trees through
``lint_sources``; the canaries load the *real* ``src`` tree, break one
seam in ``repro/serve/tenant.py`` the way a refactor plausibly would
(drop the quota rollback, route the apply inline, reorder the
publish-event swap), and assert the matching rule fires at the broken
seam — proof the gate guards the shipped code, not just the fixtures.
Suppression comments in fixtures are built from ``ALLOW`` so this file
never contains a live suppression.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import iter_python_files, lint_sources
from repro.analysis.rules import SUPPRESSION_SCOPE

ALLOW = "# repro" + ": allow"

REPO_ROOT = Path(__file__).resolve().parents[1]

LIB = "src/repro/eval/driver.py"
SEAM = "src/repro/serve/tenant.py"
TENANT = str(REPO_ROOT / "src" / "repro" / "serve" / "tenant.py")


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def _rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# REP012 — no loop-blocking call reachable from an async def
# ----------------------------------------------------------------------

REP012_FIRE = _src(
    """
    import time

    def crunch(x):
        time.sleep(x)
        return x

    async def handler(x):
        return crunch(x)
    """
)

REP012_CLEAN = _src(
    """
    import asyncio
    import time

    def crunch(x):
        time.sleep(x)
        return x

    async def handler(x):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, crunch, x)
    """
)


class TestLoopBlocking:
    def test_sync_blocking_chain_fires(self):
        findings = lint_sources([(LIB, REP012_FIRE)])
        assert _rules_of(findings) == ["REP012"]
        assert "handler" in findings[0].message
        assert "crunch" in findings[0].message

    def test_offload_seam_is_clean(self):
        assert lint_sources([(LIB, REP012_CLEAN)]) == []

    def test_direct_blocking_call_fires(self):
        source = _src(
            """
            import time

            async def handler(x):
                time.sleep(x)
            """
        )
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP012"]

    def test_suppression_only_sanctioned_on_the_seam(self):
        assert SUPPRESSION_SCOPE["REP012"] == ("repro/serve/tenant.py",)
        fire = REP012_FIRE.replace(
            "return crunch(x)", f"return crunch(x)  {ALLOW}[REP012]"
        )
        findings = lint_sources([(LIB, fire)])
        assert _rules_of(findings) == ["REP012"]
        assert "only sanctioned" in findings[0].message

    def test_suppression_honored_on_the_seam(self):
        fire = REP012_FIRE.replace(
            "return crunch(x)", f"return crunch(x)  {ALLOW}[REP012]"
        )
        assert lint_sources([(SEAM, fire)]) == []


# ----------------------------------------------------------------------
# REP013 — single-writer discipline
# ----------------------------------------------------------------------

REP013_FIRE = _src(
    """
    import asyncio

    class Serv:
        def start(self):
            self._task = asyncio.get_running_loop().create_task(
                self._writer()
            )

        async def _writer(self):
            await asyncio.sleep(0)
            self._count = 1

        async def reader(self):
            await asyncio.sleep(0)
            self._bump()

        def _bump(self):
            self._count = 2
    """
)

REP013_CLEAN = REP013_FIRE.replace("self._bump()", "return self._count")


class TestSingleWriter:
    def test_reader_reaching_writer_owned_write_fires(self):
        findings = lint_sources([(LIB, REP013_FIRE)])
        assert _rules_of(findings) == ["REP013"]
        message = findings[0].message
        assert "reader" in message
        assert "_count" in message
        assert "_bump" in message  # the chain is named

    def test_read_only_reader_is_clean(self):
        assert lint_sources([(LIB, REP013_CLEAN)]) == []

    def test_direct_reader_write_fires_at_the_write(self):
        source = REP013_FIRE.replace("self._bump()", "self._count = 3")
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP013"]

    def test_without_a_writer_task_nothing_is_owned(self):
        source = REP013_FIRE.replace("create_task", "untracked_helper")
        findings = lint_sources([(LIB, source)])
        assert "REP013" not in _rules_of(findings)


# ----------------------------------------------------------------------
# REP015 — quota reserve/rollback pairing
# ----------------------------------------------------------------------

REP015_FIRE = _src(
    """
    import asyncio

    class Quota:
        def __init__(self):
            self.max_items = 4

    class Serv:
        def __init__(self, quota: Quota):
            self.quota = quota
            self._used = 0
            self._q = asyncio.Queue()

        async def push(self, n):
            if self._used + n > self.quota.max_items:
                raise RuntimeError("over quota")
            self._used += n
            await self._q.put(n)
    """
)

REP015_CLEAN = REP015_FIRE.replace(
    """        self._used += n
        await self._q.put(n)""",
    """        self._used += n
        landed = False
        try:
            await self._q.put(n)
            landed = True
        finally:
            if not landed:
                self._used -= n""",
)


class TestQuotaRollback:
    def test_unprotected_reserve_across_await_fires(self):
        findings = lint_sources([(LIB, REP015_FIRE)])
        assert _rules_of(findings) == ["REP015"]
        message = findings[0].message
        assert "_used" in message
        assert "push" in message

    def test_try_finally_release_is_clean(self):
        assert lint_sources([(LIB, REP015_CLEAN)]) == []

    def test_release_in_handler_is_clean(self):
        source = REP015_FIRE.replace(
            """        self._used += n
        await self._q.put(n)""",
            """        self._used += n
        try:
            await self._q.put(n)
        except asyncio.CancelledError:
            self._used -= n
            raise""",
        )
        assert lint_sources([(LIB, source)]) == []

    def test_reserve_without_await_is_clean(self):
        source = REP015_FIRE.replace(
            "await self._q.put(n)", "self._q.put_nowait(n)"
        )
        assert lint_sources([(LIB, source)]) == []


# ----------------------------------------------------------------------
# REP016 — publish-event swap-and-set protocol
# ----------------------------------------------------------------------

REP016_CLEAN = _src(
    """
    import asyncio

    class Serv:
        def __init__(self):
            self._ev = asyncio.Event()

        def wake(self):
            old = self._ev
            self._ev = asyncio.Event()
            old.set()
    """
)

REP016_FIRE = REP016_CLEAN.replace(
    """        old = self._ev
        self._ev = asyncio.Event()
        old.set()""",
    """        old = self._ev
        old.set()
        self._ev = asyncio.Event()""",
)


class TestPublishEvent:
    def test_set_before_swap_fires(self):
        findings = lint_sources([(LIB, REP016_FIRE)])
        assert _rules_of(findings) == ["REP016"]
        assert "before" in findings[0].message

    def test_swap_then_set_is_clean(self):
        assert lint_sources([(LIB, REP016_CLEAN)]) == []

    def test_swap_without_capture_fires(self):
        source = REP016_CLEAN.replace(
            """        old = self._ev
        self._ev = asyncio.Event()
        old.set()""",
            """        self._ev = asyncio.Event()""",
        )
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP016"]
        assert "without capturing" in findings[0].message

    def test_in_place_set_fires(self):
        source = REP016_CLEAN.replace(
            "        old.set()",
            """        old.set()

    def poke(self):
        self._ev.set()""",
        )
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP016"]
        assert "fresh" in findings[0].message

    def test_writer_awaiting_its_own_event_fires(self):
        source = _src(
            """
            import asyncio

            class Serv:
                def __init__(self):
                    self._ev = asyncio.Event()

                def start(self):
                    self._task = asyncio.get_running_loop().create_task(
                        self._writer()
                    )

                def wake(self):
                    old = self._ev
                    self._ev = asyncio.Event()
                    old.set()

                async def _writer(self):
                    await self._ev.wait()
            """
        )
        findings = lint_sources([(LIB, source)])
        assert "REP016" in _rules_of(findings)
        assert any("deadlock" in f.message for f in findings)


# ----------------------------------------------------------------------
# Real-tree canaries: break the shipped seams, the gate must notice
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_tree():
    files = []
    for path in iter_python_files([str(REPO_ROOT / "src")]):
        with open(path, encoding="utf-8") as fp:
            files.append((path, fp.read()))
    return files


def _mutated(files, needle, replacement):
    tenant = dict(files)[TENANT]
    assert needle in tenant, "canary seam moved; update the mutation"
    mutated = tenant.replace(needle, replacement)
    return [(p, mutated if p == TENANT else s) for p, s in files]


class TestRealTreeCanaries:
    def test_dropping_the_quota_rollback_fires_rep015(self, real_tree):
        files = _mutated(
            real_tree,
            "self._known_lights -= new_lights  # the chunk never landed",
            "pass",
        )
        findings = lint_sources(files)
        assert "REP015" in _rules_of(findings)
        hit = next(f for f in findings if f.rule == "REP015")
        assert hit.path == TENANT
        assert "submit" in hit.message
        assert "_known_lights" in hit.message

    def test_routing_apply_inline_fires_rep013(self, real_tree):
        files = _mutated(
            real_tree,
            "await self._queue.put(item)",
            "self._apply(item)",
        )
        findings = lint_sources(files)
        rules = _rules_of(findings)
        assert "REP013" in rules
        hit = next(f for f in findings if f.rule == "REP013")
        assert hit.path == TENANT
        assert "submit" in hit.message
        assert "_apply" in hit.message  # the call chain is named
        # the same seam also drags kernel work onto the loop
        assert "REP012" in rules

    def test_reordering_the_wake_swap_fires_rep016(self, real_tree):
        files = _mutated(
            real_tree,
            """        event = self._publish_event
        self._publish_event = asyncio.Event()
        event.set()""",
            """        event = self._publish_event
        event.set()
        self._publish_event = asyncio.Event()""",
        )
        findings = lint_sources(files)
        assert "REP016" in _rules_of(findings)
        hit = next(f for f in findings if f.rule == "REP016")
        assert hit.path == TENANT
        assert "_wake" in hit.message
