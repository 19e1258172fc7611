"""Analyzer wall-time bench — the 10 s whole-tree budget, measured.

CI's lint job runs ``python -m repro.analysis src tests benchmarks
examples --max-seconds 10`` as a *blocking* step; this bench measures
the same whole-tree run from the engine API and records wall time plus
per-rule finding counts as a JSON artifact, so budget drift is visible
run over run: an analyzer that creeps toward the budget still passes
the gate, and the artifact shows when and where it crept.

Knobs: ``REPRO_ANALYSIS_BENCH_JSON`` writes the measurements as a JSON
artifact (used by the non-blocking CI slow job); the in-process budget
assertion mirrors the lint gate's ``--max-seconds 10``.
"""

import json
import os
import time
from collections import Counter
from pathlib import Path

from conftest import banner
from repro.analysis.engine import iter_python_files, run_paths

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Same trees, same budget as the blocking CI lint step.
ANALYSIS_ROOTS = ("src", "tests", "benchmarks", "examples")
BUDGET_S = 10.0


def test_analyzer_budget():
    roots = [str(REPO_ROOT / r) for r in ANALYSIS_ROOTS]
    t0 = time.perf_counter()
    findings = run_paths(roots)
    elapsed = time.perf_counter() - t0
    files = iter_python_files(roots)

    per_rule = Counter(f.rule for f in findings)
    banner(
        f"Whole-tree analyzer: {', '.join(ANALYSIS_ROOTS)} "
        f"({elapsed:.2f}s against a {BUDGET_S:.0f}s budget)"
    )
    print(f"  files analyzed: {len(files)}")
    print(f"  findings: {len(findings)}")
    for rule, count in sorted(per_rule.items()):
        print(f"    {rule}: {count}")
    print(f"  wall time: {elapsed:.2f}s ({elapsed / BUDGET_S:.0%} of budget)")

    out_path = os.environ.get("REPRO_ANALYSIS_BENCH_JSON")
    if out_path:
        payload = {
            "roots": list(ANALYSIS_ROOTS),
            "budget_s": BUDGET_S,
            "wall_time_s": round(elapsed, 3),
            "budget_used": round(elapsed / BUDGET_S, 3),
            "n_files": len(files),
            "n_findings": len(findings),
            "findings_per_rule": dict(sorted(per_rule.items())),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"  wrote {out_path}")

    # the committed-empty baseline, re-proven from the bench path
    assert findings == [], (
        "whole-tree analyzer run must stay clean (committed-empty baseline)"
    )
    # mirror of the lint gate's --max-seconds 10: if this fails, the
    # blocking CI step is about to start failing too
    assert elapsed <= BUDGET_S, (
        f"analyzer took {elapsed:.2f}s; the CI gate enforces {BUDGET_S:.0f}s"
    )
