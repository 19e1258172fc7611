"""REP018 — order-stable reductions in parity code: fixtures + canary.

Synthetic trees exercise the rule's fire and clean paths through
``lint_sources`` (the same engine path CI takes).  The canary test then
mutates the *real* tree in memory — inserting a set-fed accumulation
into a parity kernel — and asserts the rule catches the regression,
proving the committed-empty baseline is load-bearing rather than
vacuous.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import iter_python_files, lint_sources

REPO_ROOT = Path(__file__).resolve().parents[1]

PARITY = "src/repro/core/cycle.py"
LIB = "src/repro/eval/driver.py"


def _messages(findings, rule):
    return [f.message for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# REP018 — order-stable reductions in the parity-reachable closure
# ----------------------------------------------------------------------


class TestRep018:
    def test_set_fed_reduction_in_kernel_fires(self):
        kernel = (
            "import numpy as np\n\n"
            "def fold_kernel(values):\n"
            "    vals = list({float(x) for x in values})\n"
            "    return float(np.sum(vals))\n"
        )
        findings = lint_sources([(PARITY, kernel)])
        msgs = _messages(findings, "REP018")
        assert msgs
        assert any("set-order-tainted" in m for m in msgs)

    def test_set_fed_loop_accumulation_in_helper_fires(self):
        kernel = (
            "from repro.eval.driver import acc\n\n"
            "def fold_kernel(values):\n"
            "    return acc(values)\n"
        )
        helper = (
            "def acc(values):\n"
            "    total = 0.0\n"
            "    for x in set(values):\n"
            "        total += x\n"
            "    return total\n"
        )
        findings = lint_sources([(PARITY, kernel), (LIB, helper)])
        msgs = _messages(findings, "REP018")
        assert msgs
        assert any("canonical order" in m for m in msgs)

    def test_fsum_outside_seam_list_fires(self):
        kernel = (
            "import math\n\n"
            "def fold_kernel(values):\n"
            "    return math.fsum(values)\n"
        )
        findings = lint_sources([(PARITY, kernel)])
        msgs = _messages(findings, "REP018")
        assert msgs
        assert any("fsum" in m for m in msgs)

    def test_unreachable_helper_is_out_of_scope(self):
        # same unstable accumulation, but nothing in a parity file
        # calls it — REP006 may comment per-file; REP018 must not
        helper = (
            "def acc(values):\n"
            "    total = 0.0\n"
            "    for x in set(values):\n"
            "        total += x\n"
            "    return total\n"
        )
        findings = lint_sources([(LIB, helper)])
        assert _messages(findings, "REP018") == []

    def test_sorted_reduction_is_clean(self):
        kernel = (
            "import numpy as np\n\n"
            "def fold_kernel(values):\n"
            "    vals = sorted({float(x) for x in values})\n"
            "    return float(np.sum(vals))\n"
        )
        findings = lint_sources([(PARITY, kernel)])
        assert _messages(findings, "REP018") == []


# ----------------------------------------------------------------------
# Real-tree canary: the committed-empty baseline is load-bearing
# ----------------------------------------------------------------------


def _real_tree():
    files = []
    for path in iter_python_files([str(REPO_ROOT / "src")]):
        text = Path(path).read_text(encoding="utf-8")
        files.append((str(Path(path).relative_to(REPO_ROOT)), text))
    return files


@pytest.fixture(scope="module")
def tree():
    return _real_tree()


class TestRealTreeCanaries:
    def test_set_fed_accumulation_in_kernel_fires_rep018(self, tree):
        extra = (
            "\n\n"
            "def _canary_profile_mean(xs):\n"
            "    vals = list({float(x) for x in xs})\n"
            "    acc = 0.0\n"
            "    for x in vals:\n"
            "        acc += x\n"
            "    return acc / max(len(vals), 1)\n"
        )
        patched = [
            (p, t + extra if p == "src/repro/core/superposition.py" else t)
            for p, t in tree
        ]
        findings = lint_sources(patched)
        assert _messages(findings, "REP018"), (
            "a set-fed accumulation inside a parity file must fire REP018"
        )
