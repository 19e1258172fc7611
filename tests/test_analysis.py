"""The invariant linter (`repro.analysis`) on per-file rule fixtures.

Each REP rule gets (a) a minimal bad example it must fire on and
(b) a minimal good example it must stay silent on.  Paths are
synthetic strings — ``lint_source`` never touches the filesystem —
chosen so ``module_path`` maps them into the scopes each rule watches.
The CLI tests write small trees to ``tmp_path``.  ``TestBaseline``
runs the analyzer over the actual repository, the contract the CI gate
enforces.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.cli import DEFAULT_PATHS, main
from repro.analysis.engine import module_path, run_paths, to_sarif

REPO_ROOT = Path(__file__).resolve().parents[1]

# Synthetic paths inside each rule's scope.
CORE = "pkg/src/repro/core/somefile.py"
PARITY = "pkg/src/repro/core/batch.py"
SEAM = "pkg/src/repro/parallel/pool.py"
PIPELINE = "pkg/src/repro/core/pipeline.py"
LIB = "pkg/src/repro/matching/somefile.py"
OUTSIDE = "pkg/tests/test_somefile.py"

# Assembled so the scanner never sees the pattern in THIS file's lines
# (the suppression protocol is line-based, not comment-aware).
ALLOW = "# repro" + ": allow"


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# module_path
# ----------------------------------------------------------------------
class TestModulePath:
    def test_strips_any_prefix(self):
        assert module_path("/a/b/src/repro/core/x.py") == "repro/core/x.py"

    def test_non_package_path_passthrough(self):
        assert module_path("tests/test_x.py") == "tests/test_x.py"

    def test_rightmost_marker_wins(self):
        assert module_path("/repro/old/src/repro/core/x.py") == "repro/core/x.py"


# ----------------------------------------------------------------------
# REP001 — mutable/shared defaults
# ----------------------------------------------------------------------
class TestRep001:
    def test_list_default_fires(self):
        src = "def f(x=[]):\n    return x\n"
        assert rules_of(lint_source(src, OUTSIDE)) == ["REP001"]

    def test_dict_and_set_defaults_fire(self):
        src = "def f(a={}, b={1}):\n    return a, b\n"
        assert rules_of(lint_source(src, LIB)) == ["REP001", "REP001"]

    def test_constructor_call_default_fires(self):
        src = (
            "class Config:\n    pass\n\n"
            "def f(config=Config()):\n    return config\n"
        )
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_none_and_tuple_defaults_clean(self):
        src = "def f(a=None, b=(), c=tuple(), d=frozenset()):\n    return a, b, c, d\n"
        assert lint_source(src, LIB) == []

    def test_lambda_default_fires(self):
        src = "g = lambda x=[]: x\n"
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_dataclass_field_call_default_fires(self):
        src = (
            "from dataclasses import dataclass\n\n"
            "class Params:\n    pass\n\n"
            "@dataclass\nclass C:\n    p: Params = Params()\n"
        )
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_dataclass_default_factory_clean(self):
        src = (
            "from dataclasses import dataclass, field\n\n"
            "class Params:\n    pass\n\n"
            "@dataclass\nclass C:\n    p: Params = field(default_factory=Params)\n"
        )
        assert lint_source(src, LIB) == []

    def test_plain_class_attribute_not_flagged(self):
        # Without @dataclass a class-body call is an ordinary class
        # attribute, not an instance default.
        src = "class C:\n    registry = make_registry()\n"
        assert lint_source(src, LIB) == []


# ----------------------------------------------------------------------
# REP002 — broad except only at the containment seams
# ----------------------------------------------------------------------
class TestRep002:
    BAD = "try:\n    work()\nexcept Exception:\n    pass\n"

    def test_broad_except_fires_in_library(self):
        assert rules_of(lint_source(self.BAD, CORE)) == ["REP002"]

    def test_bare_except_fires(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]

    def test_narrow_except_clean(self):
        src = "try:\n    work()\nexcept ValueError:\n    pass\n"
        assert lint_source(src, CORE) == []

    def test_outside_library_not_in_scope(self):
        assert lint_source(self.BAD, OUTSIDE) == []

    def test_seam_file_still_needs_suppression(self):
        assert rules_of(lint_source(self.BAD, SEAM)) == ["REP002"]

    def test_sanctioned_suppression_at_seam(self):
        src = f"try:\n    work()\nexcept Exception:  {ALLOW}[REP002]\n    pass\n"
        assert lint_source(src, SEAM) == []

    def test_suppression_outside_seam_is_itself_a_finding(self):
        src = f"try:\n    work()\nexcept Exception:  {ALLOW}[REP002]\n    pass\n"
        for path in (CORE, PIPELINE):
            findings = lint_source(src, path)
            assert rules_of(findings) == ["REP002"], path
            assert "sanctioned" in findings[0].message


# ----------------------------------------------------------------------
# REP003 — RNGs enter through the seams
# ----------------------------------------------------------------------
class TestRep003:
    def test_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert "REP003" in rules_of(lint_source(src, LIB))

    def test_stdlib_random_import_fires(self):
        src = "import random\n"
        assert rules_of(lint_source(src, LIB)) == ["REP003"]

    def test_util_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert lint_source(src, "pkg/src/repro/_util.py") == []

    def test_outside_library_not_in_scope(self):
        src = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert lint_source(src, OUTSIDE) == []

    def test_generator_type_annotation_clean(self):
        src = (
            "import numpy as np\n\n"
            "def f(rng: np.random.Generator) -> np.random.SeedSequence:\n"
            "    return np.random.SeedSequence(1)\n"
        )
        assert lint_source(src, LIB) == []

    def test_from_import_of_an_entropy_source_fires(self):
        src = "from numpy.random import default_rng\nrng = default_rng()\n"
        findings = lint_source(src, LIB)
        assert rules_of(findings) == ["REP003"]
        assert findings[0].line == 1
        assert "numpy.random.default_rng" in findings[0].message

    @pytest.mark.parametrize(
        "src",
        [
            "from numpy import random as npr\nx = npr.rand(3)\n",
            "import numpy.random as nr\nx = nr.rand(3)\n",
        ],
        ids=["from-numpy-import-random", "import-numpy-random-as"],
    )
    def test_module_aliases_fire(self, src):
        assert rules_of(lint_source(src, LIB)) == ["REP003"]

    def test_from_import_of_types_clean(self):
        src = "from numpy.random import Generator, SeedSequence\n"
        assert lint_source(src, LIB) == []

    def test_from_import_of_default_rng_allowed_in_tests(self):
        src = "from numpy.random import default_rng\nrng = default_rng(3)\n"
        assert lint_source(src, OUTSIDE) == []


# ----------------------------------------------------------------------
# REP004 — no wall clock in core/trace
# ----------------------------------------------------------------------
class TestRep004:
    def test_time_time_fires(self):
        src = "import time\nt = time.time()\n"
        assert "REP004" in rules_of(lint_source(src, CORE))

    def test_perf_counter_fires(self):
        src = "import time\nt = time.perf_counter()\n"
        assert "REP004" in rules_of(lint_source(src, CORE))

    def test_datetime_now_via_alias_fires(self):
        src = "import datetime as _dt\nt = _dt.datetime.now()\n"
        assert "REP004" in rules_of(lint_source(src, "x/src/repro/trace/somefile.py"))

    def test_obs_package_out_of_scope(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "x/src/repro/obs/report.py") == []


# ----------------------------------------------------------------------
# REP005 — parity kernels stay float64 and dtype-explicit
# ----------------------------------------------------------------------
class TestRep005:
    def test_float32_attribute_fires(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        assert "REP005" in rules_of(lint_source(src, PARITY))

    def test_dtype_ambiguous_asarray_fires(self):
        src = "import numpy as np\n\ndef f(x):\n    return np.asarray(x)\n"
        assert "REP005" in rules_of(lint_source(src, PARITY))

    def test_explicit_dtype_clean(self):
        src = (
            "import numpy as np\n\n"
            "def f(x):\n"
            "    return np.asarray(x, dtype=np.float64) + np.asarray(x, np.float64)\n"
        )
        assert lint_source(src, PARITY) == []

    def test_builtin_float_dtype_ambiguous(self):
        src = (
            "import numpy as np\n\n"
            "def f(x):\n"
            "    return np.asarray(x, dtype=float) + np.asarray(x, float)\n"
        )
        findings = lint_source(src, PARITY)
        assert rules_of(findings) == ["REP005", "REP005"]
        assert all("ambiguous" in f.message for f in findings)

    def test_string_f_dtype_fires(self):
        src = (
            "import numpy as np\n\n"
            "def f(x):\n"
            '    return np.asarray(x, dtype="f")\n'
        )
        findings = lint_source(src, PARITY)
        assert "REP005" in rules_of(findings)
        assert any("downcasts below float64" in f.message for f in findings)

    def test_astype_builtin_float_fires(self):
        src = (
            "import numpy as np\n\n"
            "def f(x):\n"
            "    return np.asarray(x, dtype=np.float64).astype(float)\n"
        )
        findings = lint_source(src, PARITY)
        assert "REP005" in rules_of(findings)

    def test_non_parity_file_out_of_scope(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        assert lint_source(src, "x/src/repro/core/stops.py") == []


# ----------------------------------------------------------------------
# REP006 — no order-sensitive reductions over sets
# ----------------------------------------------------------------------
class TestRep006:
    def test_iterating_set_literal_fires(self):
        src = "total = 0\nfor x in {1.0, 2.0}:\n    total += x\n"
        assert "REP006" in rules_of(lint_source(src, LIB))

    def test_sum_over_set_call_fires(self):
        src = "def f(items):\n    return sum(set(items))\n"
        assert "REP006" in rules_of(lint_source(src, LIB))

    def test_sorted_set_clean(self):
        src = "def f(items):\n    return [g(x) for x in sorted(set(items))]\n"
        assert lint_source(src, LIB) == []


# ----------------------------------------------------------------------
# Engine-level behavior
# ----------------------------------------------------------------------
class TestEngine:
    def test_suppression_comment_silences_rule(self):
        src = f"def f(x=[]):  {ALLOW}[REP001]\n    return x\n"
        assert lint_source(src, LIB) == []

    def test_unknown_rule_in_suppression_flagged(self):
        src = f"x = 1  {ALLOW}[REP999]\n"
        findings = lint_source(src, LIB)
        assert rules_of(findings) == ["REP000"]
        assert "REP999" in findings[0].message

    def test_syntax_error_becomes_rep000(self):
        findings = lint_source("def f(:\n", LIB)
        assert rules_of(findings) == ["REP000"]

    def test_select_filters_rules(self):
        src = "import random\n\ndef f(x=[]):\n    return x\n"
        only = lint_source(src, LIB, select=["REP001"])
        assert rules_of(only) == ["REP001"]

    def test_findings_sorted_by_location(self):
        src = "import random\n\ndef f(x=[]):\n    return x\n"
        findings = lint_source(src, LIB)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_render_format(self):
        findings = lint_source("def f(x=[]):\n    return x\n", LIB)
        rendered = findings[0].render()
        assert rendered.startswith(f"{LIB}:1:")
        assert "REP001" in rendered


#: A tree-relative library file, and one module that fires (REP001)
#: and its clean twin, for SARIF and the CLI runs over a directory.
TREE_LIB = "src/repro/eval/driver.py"
FIRE = "def run(items, shared={}):\n    return items, shared\n"
CLEAN = "def run(items, shared=None):\n    return items, shared\n"


# ----------------------------------------------------------------------
# REP011 — unused suppressions
# ----------------------------------------------------------------------
class TestUnusedSuppression:
    def test_dead_suppression_fires(self):
        src = f"def f():\n    return 1  {ALLOW}[REP001]\n"
        findings = lint_source(src, LIB)
        assert rules_of(findings) == ["REP011"]
        assert "REP001" in findings[0].message

    def test_live_suppression_is_clean(self):
        src = f"def f(xs=[]):  {ALLOW}[REP001]\n    return xs\n"
        assert lint_source(src, LIB) == []

    def test_audit_skipped_under_select(self):
        src = f"def f():\n    return 1  {ALLOW}[REP001]\n"
        assert lint_source(src, LIB, select=["REP002"]) == []


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
class TestSarif:
    def test_structure_and_rule_indices(self):
        findings = lint_source(FIRE, TREE_LIB)
        log = to_sarif(findings)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert len(ids) == len(set(ids))
        assert {"REP001", "REP011"} <= set(ids)
        (result,) = run["results"]
        assert result["ruleId"] == "REP001"
        assert rules[result["ruleIndex"]]["id"] == "REP001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        loc = result["locations"][0]["physicalLocation"]["artifactLocation"]
        assert loc["uri"] == TREE_LIB

    def test_empty_run_is_valid(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []
        json.dumps(log)  # must be serializable


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write_tree(root: Path, files) -> None:
    for rel, source in files:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert main([str(f)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_one_and_print(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("def f(x=[]):\n    return x\n")
        assert main([str(f)]) == 1
        out = capsys.readouterr()
        assert "REP001" in out.out
        assert "1 finding(s)" in out.err

    def test_select_runs_only_named_rules(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def f(x=[]):\n    return x\n")
        assert main([str(f), "--select", "REP002"]) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main([str(f), "--select", "REP042"])
        assert exc.value.code == 2

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["does/not/exist"])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP011",
        ]

    def test_fire_fixture_exits_one(self, tmp_path, monkeypatch, capsys):
        _write_tree(tmp_path, [(TREE_LIB, FIRE)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "-q"]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_clean_fixture_exits_zero(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, [(TREE_LIB, CLEAN)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "-q"]) == 0

    def test_sarif_output_file(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, [(TREE_LIB, FIRE)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "sarif", "--output", "out.sarif", "-q"]) == 1
        log = json.loads((tmp_path / "out.sarif").read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "REP001"

    def test_select_narrows_the_tree_run(self, tmp_path, monkeypatch, capsys):
        _write_tree(tmp_path, [(TREE_LIB, FIRE)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--select", "REP001", "-q"]) == 1
        assert main(["src", "--select", "REP002", "-q"]) == 0
        capsys.readouterr()

    def test_max_seconds_budget_blown_exits_two(self, tmp_path, monkeypatch, capsys):
        _write_tree(tmp_path, [(TREE_LIB, CLEAN)])
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--max-seconds", "0", "-q"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_import_leaves_numpy_and_scipy_unloaded(self):
        """The analyzer is pure stdlib, and ``import repro`` imports no
        subpackage, so a CI run pays for neither numeric library."""
        src = str(REPO_ROOT / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, repro.analysis; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


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
        # the CLI's default roots, which CI's blocking analyzer step checks
        findings = run_paths([str(REPO_ROOT / root) for root in DEFAULT_PATHS])
        rendered = [
            f"{os.path.relpath(f.path, REPO_ROOT)}:{f.line}: {f.rule}"
            for f in findings
        ]
        assert rendered == baseline
