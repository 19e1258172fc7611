"""The parity kernels import only modules in mypy's strict tier.

The bit-for-bit backend contract is only as strong as the annotations
the kernels lean on: an untyped module the kernels reach is where a
dtype-ambiguous value enters unchecked.  This walks the ``import`` and
``from … import`` statements transitively from the parity kernel files
(``repro.analysis.rules.PARITY_FILES``), following the module each
statement names (not the parent packages' ``__init__`` files), and
checks every ``repro`` module it reaches against the strict override
block in ``pyproject.toml``, the one list of that tier.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Set

from repro.analysis.rules import PARITY_FILES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def strict_tier() -> List[str]:
    """Module patterns of pyproject's strict mypy override."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(
        r"module = \[([^\]]*)\]\s*\ndisallow_untyped_defs = true", text
    )
    assert match is not None, "strict mypy override block not found"
    return re.findall(r'"([^"]+)"', match.group(1))


def in_tier(module: str, patterns: List[str]) -> bool:
    # mypy's ``pkg.*`` also matches ``pkg`` itself
    return any(
        fnmatch(module, pat) or (pat.endswith(".*") and module == pat[:-2])
        for pat in patterns
    )


def _source_of(module: str) -> Path:
    base = SRC.joinpath(*module.split("."))
    package = base / "__init__.py"
    return package if package.exists() else base.with_suffix(".py")


def imported_modules(module: str) -> Set[str]:
    """The ``repro`` modules named by *module*'s import statements."""
    path = _source_of(module)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    named: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                named.add(".".join(parts + ([node.module] if node.module else [])))
            elif node.module:
                named.add(node.module)
    return {name for name in named if name.split(".")[0] == "repro"}


def reached_from_parity() -> Dict[str, Set[str]]:
    """Every module the parity kernels reach -> the modules it imports."""
    todo = [path[: -len(".py")].replace("/", ".") for path in PARITY_FILES]
    graph: Dict[str, Set[str]] = {}
    while todo:
        module = todo.pop()
        if module not in graph:
            graph[module] = imported_modules(module)
            todo.extend(graph[module])
    return graph


class TestStrictFrontier:
    def test_parity_kernels_reach_only_strict_modules(self):
        patterns = strict_tier()
        graph = reached_from_parity()
        # the walk follows relative and function-level imports, and
        # reaches a package __init__ only where a statement names it
        assert "repro.matching.partition" in graph["repro.core.batch"]
        assert "repro.core.shard" in graph["repro.core.pipeline"]
        assert "repro.obs" in graph and "repro.core" not in graph
        outside = sorted(
            f"{module} (imported by {', '.join(sorted(m for m in graph if module in graph[m]))})"
            for module in graph
            if not in_tier(module, patterns)
        )
        assert outside == [], (
            "modules the parity kernels reach are outside pyproject's strict "
            f"mypy tier; add them there or break the import: {outside}"
        )
