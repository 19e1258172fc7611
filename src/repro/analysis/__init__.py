"""Static invariant analysis for the repro codebase.

The parity and containment contracts the test suite enforces by
sampling (bit-for-bit serial/batched equality, typed failure routing,
deterministic RNG threading) are encoded here as repo-specific AST
lint rules, so whole bug classes are rejected before anything runs:

========  ==========================================================
REP001    no mutable or call-expression default arguments (the
          shared ``config=PipelineConfig()`` bug class)
REP002    no broad/bare ``except`` outside the sanctioned containment
          seam (``repro/parallel/pool.py``)
REP003    RNGs enter library code only through the
          ``repro._util.as_rng`` / ``seed_sequence_for`` seams
REP004    no wall-clock reads in ``repro.core`` / ``repro.trace``
          (telemetry goes through ``repro.obs``)
REP005    no float32 downcasts or dtype-ambiguous array coercions in
          the parity-critical kernels
REP006    no iteration or float accumulation over ``set`` values
          (iteration order would feed a numeric reduction)
========  ==========================================================

On top of the per-file pass, a whole-program pass (call graph +
monotone effect fixpoint, ``callgraph.py`` / ``effects.py``) checks
the interprocedural contracts:

========  ==========================================================
REP008    no mutation of values already dispatched into a worker
          closure
REP009    set-order taint must not cross a call boundary into a
          float reduction
REP010    kernel call paths stay inside the mypy-strict module tier
REP011    every ``allow`` suppression still matches a finding
REP018    parity-reachable reductions are order-stable; ``math.fsum``
          only at allowlisted seams (none today)
========  ==========================================================

Run it as ``python -m repro.analysis [paths...]`` (default: the CI
roots ``src tests benchmarks examples``); suppress a single finding
with a trailing ``# repro: allow[REP00x]`` comment (REP002
suppressions are themselves only honored at the sanctioned seam).
The serve layer's concurrency contracts are runtime tests instead:
``tests/test_serve.py::TestConcurrencyContracts``.
"""

from .engine import Finding, lint_file, lint_source, run_paths
from .rules import ALL_RULES, Rule, SUPPRESSION_SCOPE

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "SUPPRESSION_SCOPE",
    "lint_file",
    "lint_source",
    "run_paths",
]
