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

REP011 audits the suppression comments: each one must still silence
a finding on its line.  Every rule reads one file at a time.

Run it as ``python -m repro.analysis [paths...]`` (default: the CI
roots ``src tests benchmarks examples``); suppress a single finding
with a trailing ``# repro: allow[REP00x]`` comment (REP002
suppressions are themselves only honored at the sanctioned seam).
Contracts that span modules or runs are runtime tests instead: the
serve layer's concurrency (``tests/test_serve.py::TestConcurrencyContracts``),
hash-order independence of every golden
(``tests/test_golden.py::TestHashSeedIndependence``), and the kernels'
imports staying in the mypy-strict tier (``tests/test_strict_frontier.py``).
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
