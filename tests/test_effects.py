"""Whole-program analyzer tests: call graph, effect fixpoint, REP008–REP011.

Synthetic trees are linted in memory through ``lint_sources`` (engine
semantics) or written to ``tmp_path`` and driven through the CLI
``main`` (exit codes, SARIF, the time budget).  Suppression
comments inside source-string fixtures are built from ``ALLOW`` so this
file itself never contains a live suppression.
"""

from __future__ import annotations

import json
import os
import re
import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_callgraph, module_path
from repro.analysis.cli import DEFAULT_PATHS, main
from repro.analysis.effects import build_program
from repro.analysis.engine import lint_sources, run_paths, to_sarif
from repro.analysis.rules import PROGRAM_RULES, StrictFrontierRule

ALLOW = "# repro" + ": allow"

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Synthetic library paths: rules scope by where a file sits in the tree.
STREAM = "src/repro/stream/ingest.py"
CORE = "src/repro/core/kernels.py"
PARITY = "src/repro/core/batch.py"
LIB = "src/repro/eval/driver.py"


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def _rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# Call graph construction
# ----------------------------------------------------------------------


class TestCallGraph:
    def test_direct_call_edge(self):
        graph = build_callgraph(
            [
                (
                    CORE,
                    _src(
                        """
                        def helper(x):
                            return x + 1

                        def entry(x):
                            return helper(x)
                        """
                    ),
                )
            ]
        )
        assert "repro.core.kernels.helper" in graph.callees_of(
            "repro.core.kernels.entry"
        )
        assert "repro.core.kernels.entry" in graph.callers_of(
            "repro.core.kernels.helper"
        )

    def test_method_call_via_annotated_param(self):
        graph = build_callgraph(
            [
                (
                    CORE,
                    _src(
                        """
                        class Box:
                            def get(self):
                                return 1

                        def use(b: Box):
                            return b.get()
                        """
                    ),
                )
            ]
        )
        assert "repro.core.kernels.Box.get" in graph.callees_of(
            "repro.core.kernels.use"
        )

    def test_constructor_then_method(self):
        graph = build_callgraph(
            [
                (
                    CORE,
                    _src(
                        """
                        class Box:
                            def get(self):
                                return 1

                        def use():
                            b = Box()
                            return b.get()
                        """
                    ),
                )
            ]
        )
        callees = graph.callees_of("repro.core.kernels.use")
        assert "repro.core.kernels.Box.__init__" in callees or callees
        assert "repro.core.kernels.Box.get" in callees

    def test_relative_import_resolution(self):
        graph = build_callgraph(
            [
                (
                    "src/repro/core/batch.py",
                    _src(
                        """
                        from ..lights.controller import helper

                        def kernel(x):
                            return helper(x)
                        """
                    ),
                ),
                (
                    "src/repro/lights/controller.py",
                    _src(
                        """
                        def helper(x):
                            return x
                        """
                    ),
                ),
            ]
        )
        assert "repro.lights.controller.helper" in graph.callees_of(
            "repro.core.batch.kernel"
        )

    def test_reachability(self):
        graph = build_callgraph(
            [
                (
                    CORE,
                    _src(
                        """
                        def a():
                            return b()

                        def b():
                            return c()

                        def c():
                            return 1

                        def island():
                            return 2
                        """
                    ),
                )
            ]
        )
        reach = graph.reachable_from(["repro.core.kernels.a"])
        assert "repro.core.kernels.c" in reach
        assert "repro.core.kernels.island" not in reach

    def test_module_path_normalization(self):
        assert module_path("/x/y/src/repro/core/batch.py") == "repro/core/batch.py"
        assert module_path("tests/test_foo.py") == "tests/test_foo.py"


# ----------------------------------------------------------------------
# Effect fixpoint convergence
# ----------------------------------------------------------------------


class TestFixpoint:
    def test_self_recursion_terminates(self):
        program = build_program(
            [
                (
                    CORE,
                    _src(
                        """
                        def f(n):
                            if n == 0:
                                return set()
                            return f(n - 1)
                        """
                    ),
                )
            ]
        )
        assert program.effects["repro.core.kernels.f"].returns_unordered

    def test_mutual_recursion_terminates_and_propagates(self):
        program = build_program(
            [
                (
                    CORE,
                    _src(
                        """
                        def ping(acc, depth):
                            if depth:
                                return pong(acc, depth - 1)
                            acc.append(1)

                        def pong(acc, depth):
                            return ping(acc, depth)
                        """
                    ),
                )
            ]
        )
        ping = program.effects["repro.core.kernels.ping"]
        pong = program.effects["repro.core.kernels.pong"]
        assert "acc" in ping.mutated_params and "acc" in pong.mutated_params

    def test_mutated_param_propagates_through_calls(self):
        program = build_program(
            [
                (
                    CORE,
                    _src(
                        """
                        def inner(acc):
                            acc.append(1)

                        def outer(acc):
                            inner(acc)
                        """
                    ),
                )
            ]
        )
        assert "acc" in program.effects["repro.core.kernels.outer"].mutated_params


# ----------------------------------------------------------------------
# REP008 — worker escapes and shared fixtures
# ----------------------------------------------------------------------


REP008_FIRE = _src(
    """
    from repro.parallel.pool import pmap

    def run(work, items, shared):
        out = pmap(work, items, common=shared)
        shared["k"] = 1
        return out
    """
)

REP008_CLEAN = _src(
    """
    from repro.parallel.pool import pmap

    def run(work, items, shared):
        shared["k"] = 1
        return pmap(work, items, common=shared)
    """
)


class TestWorkerEscape:
    def test_mutation_after_pmap_fires(self):
        findings = lint_sources([(LIB, REP008_FIRE)])
        assert _rules_of(findings) == ["REP008"]
        assert "shared" in findings[0].message

    def test_mutation_before_pmap_is_clean(self):
        assert lint_sources([(LIB, REP008_CLEAN)]) == []

    def test_mutation_through_callee_fires(self):
        source = _src(
            """
            from repro.parallel.pool import pmap

            def poke(obj):
                obj.append(1)

            def run(work, items):
                out = pmap(work, items)
                poke(items)
                return out
            """
        )
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP008"]

    def test_alias_mutation_fires(self):
        source = _src(
            """
            from repro.parallel.pool import pmap

            def run(work, part):
                out = pmap(work, part)
                sub = part.trace
                sub.append(1)
                return out
            """
        )
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP008"]

    def test_shared_fixture_mutation_fires_in_tests_tree(self):
        conftest = _src(
            """
            import pytest

            @pytest.fixture(scope="session")
            def city():
                return {"lights": []}
            """
        )
        test = _src(
            """
            def test_poke(city):
                city["lights"].append(1)
            """
        )
        findings = lint_sources(
            [("tests/conftest.py", conftest), ("tests/test_poke.py", test)]
        )
        assert _rules_of(findings) == ["REP008"]
        assert "session/module-scoped fixture" in findings[0].message

    def test_function_scoped_fixture_mutation_is_clean(self):
        conftest = _src(
            """
            import pytest

            @pytest.fixture
            def city():
                return {"lights": []}
            """
        )
        test = _src(
            """
            def test_poke(city):
                city["lights"] = [1]
            """
        )
        findings = lint_sources(
            [("tests/conftest.py", conftest), ("tests/test_poke.py", test)]
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP009 — cross-call set-order taint
# ----------------------------------------------------------------------


class TestCrossCallSetOrder:
    def test_unordered_return_reduced_in_caller_fires(self):
        source = _src(
            """
            def gather():
                return set([1.0, 2.0])

            def total():
                vals = gather()
                return sum(vals)
            """
        )
        findings = lint_sources([(CORE, source)])
        assert _rules_of(findings) == ["REP009"]
        assert "callee" in findings[0].message

    def test_tainted_arg_into_sink_param_fires(self):
        source = _src(
            """
            def reduce_all(xs):
                return sum(xs)

            def caller():
                s = {1.0, 2.0}
                return reduce_all(s)
            """
        )
        findings = lint_sources([(CORE, source)])
        assert _rules_of(findings) == ["REP009"]
        assert "reduce_all" in findings[0].message

    def test_sorted_at_boundary_is_clean(self):
        source = _src(
            """
            def gather():
                return set([1.0, 2.0])

            def total():
                vals = sorted(gather())
                return sum(vals)
            """
        )
        assert lint_sources([(CORE, source)]) == []

    def test_local_set_reduction_stays_rep006(self):
        source = _src(
            """
            def total():
                return sum({1.0, 2.0})
            """
        )
        findings = lint_sources([(CORE, source)])
        assert _rules_of(findings) == ["REP006"]


# ----------------------------------------------------------------------
# REP010 — strict-typing frontier
# ----------------------------------------------------------------------


class TestStrictFrontier:
    def test_parity_call_into_nonstrict_module_fires(self):
        files = [
            (
                PARITY,
                _src(
                    """
                    from ..sim.queueing import helper

                    def kernel(x):
                        return helper(x)
                    """
                ),
            ),
            (
                "src/repro/sim/queueing.py",
                _src(
                    """
                    def helper(x):
                        return x
                    """
                ),
            ),
        ]
        findings = lint_sources(files)
        assert _rules_of(findings) == ["REP010"]
        assert "repro.sim.queueing" in findings[0].message

    def test_parity_call_into_strict_module_is_clean(self):
        files = [
            (
                PARITY,
                _src(
                    """
                    from .cycle import helper

                    def kernel(x):
                        return helper(x)
                    """
                ),
            ),
            (
                "src/repro/core/cycle.py",
                _src(
                    """
                    def helper(x):
                        return x
                    """
                ),
            ),
        ]
        assert lint_sources(files) == []

    def test_unreachable_nonstrict_call_is_clean(self):
        files = [
            (
                LIB,
                _src(
                    """
                    from ..lights.controller import helper

                    def driver(x):
                        return helper(x)
                    """
                ),
            ),
            (
                "src/repro/lights/controller.py",
                _src(
                    """
                    def helper(x):
                        return x
                    """
                ),
            ),
        ]
        assert lint_sources(files) == []

    def test_strict_modules_mirror_pyproject(self):
        """REP010's frontier and mypy's strict tier must move together."""
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(
            r"module = \[([^\]]*)\]\s*\ndisallow_untyped_defs = true",
            text,
        )
        assert match is not None, "strict mypy override block not found"
        entries = re.findall(r'"([^"]+)"', match.group(1))
        expected = set()
        for entry in entries:
            expected.add(entry)
            if entry.endswith(".*"):
                expected.add(entry[: -len(".*")])
        assert set(StrictFrontierRule.STRICT_MODULES) == expected


# ----------------------------------------------------------------------
# REP011 — unused suppressions
# ----------------------------------------------------------------------


class TestUnusedSuppression:
    def test_dead_suppression_fires(self):
        source = _src(
            f"""
            def f():
                return 1  {ALLOW}[REP001]
            """
        )
        findings = lint_sources([(LIB, source)])
        assert _rules_of(findings) == ["REP011"]
        assert "REP001" in findings[0].message

    def test_live_suppression_is_clean(self):
        source = _src(
            f"""
            def f(xs=[]):  {ALLOW}[REP001]
                return xs
            """
        )
        assert lint_sources([(LIB, source)]) == []

    def test_audit_skipped_under_select(self):
        source = _src(
            f"""
            def f():
                return 1  {ALLOW}[REP001]
            """
        )
        findings = lint_sources([(LIB, source)], select=["REP002"])
        assert findings == []


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------


class TestSarif:
    def test_structure_and_rule_indices(self):
        findings = lint_sources([(LIB, REP008_FIRE)])
        log = to_sarif(findings)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert len(ids) == len(set(ids))
        assert {"REP008", "REP011"} <= set(ids)
        (result,) = run["results"]
        assert result["ruleId"] == "REP008"
        assert rules[result["ruleIndex"]]["id"] == "REP008"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        loc = result["locations"][0]["physicalLocation"]["artifactLocation"]
        assert loc["uri"] == LIB

    def test_empty_run_is_valid(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []
        json.dumps(log)  # must be serializable


# ----------------------------------------------------------------------
# CLI: fixture trees on disk, perf guard
# ----------------------------------------------------------------------


def _write_tree(root: Path, files) -> None:
    for rel, source in files:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


class TestCli:
    def test_fire_fixture_exits_one(self, tmp_path, monkeypatch, capsys):
        _write_tree(tmp_path, [(LIB, REP008_FIRE)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "-q"]) == 1
        out = capsys.readouterr().out
        assert "REP008" in out

    def test_clean_fixture_exits_zero(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, [(LIB, REP008_CLEAN)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "-q"]) == 0

    def test_sarif_output_file(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, [(LIB, REP008_FIRE)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "sarif", "--output", "out.sarif", "-q"]) == 1
        log = json.loads((tmp_path / "out.sarif").read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "REP008"

    def test_select_program_rule(self, tmp_path, monkeypatch, capsys):
        _write_tree(tmp_path, [(LIB, REP008_FIRE)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--select", "REP008", "-q"]) == 1
        assert main(["src", "--select", "REP001", "-q"]) == 0
        capsys.readouterr()

    def test_max_seconds_budget_blown_exits_two(self, tmp_path, monkeypatch, capsys):
        _write_tree(tmp_path, [(LIB, REP008_CLEAN)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--max-seconds", "0", "-q"]) == 2
        assert "budget" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Real tree: empty baseline
# ----------------------------------------------------------------------


class TestBaseline:
    def test_tree_matches_committed_baseline(self):
        baseline_path = REPO_ROOT / "tests" / "analysis_baseline.txt"
        baseline = [
            line
            for line in baseline_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        # the CLI's default roots, which CI's blocking lint step checks
        findings = run_paths([str(REPO_ROOT / root) for root in DEFAULT_PATHS])
        rendered = [
            f"{os.path.relpath(f.path, REPO_ROOT)}:{f.line}: {f.rule}"
            for f in findings
        ]
        assert rendered == baseline

    def test_program_rules_registered(self):
        assert [rule.id for rule in PROGRAM_RULES] == [
            "REP008",
            "REP009",
            "REP010",
            "REP018",
        ]
