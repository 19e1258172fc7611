"""Lint driver: file discovery, suppressions, rule dispatch.

Separated from :mod:`repro.analysis.rules` so rules stay declarative
and the driver owns everything positional: path normalization, the
trailing ``allow[REP00x]`` suppression protocol, the unused-suppression
audit (REP011), and the policy that a scoped suppression (REP002's) is
only honored at its sanctioned files.  Every check reads one file.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .rules import ALL_RULES, AUDIT_RULES, Finding, Rule, SUPPRESSION_SCOPE

__all__ = [
    "Finding",
    "lint_source",
    "lint_file",
    "run_paths",
    "module_path",
    "iter_python_files",
    "to_sarif",
]

#: Trailing-comment suppression: ``allow[REP001]`` or
#: ``allow[REP001,REP003]`` (with the ``repro:`` prefix) on the
#: finding's line.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")

_RULE_IDS = frozenset(rule.id for rule in (*ALL_RULES, *AUDIT_RULES))


def module_path(path: str) -> str:
    """Path from the ``repro`` package root, else the normalized path.

    ``/any/prefix/src/repro/core/batch.py`` → ``repro/core/batch.py``;
    paths outside the package (tests, benchmarks, examples) come back
    with separators normalized so rule scoping is platform-stable.
    """
    norm = path.replace(os.sep, "/").replace("\\", "/")
    marker = "/repro/"
    i = norm.rfind(marker)
    if i != -1:
        return "repro/" + norm[i + len(marker):]
    return norm


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line number -> rule ids allowed on that line."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allowed[lineno] = ids
    return allowed


def _unsanctioned_suppressions(
    suppressions: Dict[int, Set[str]], path: str, mod_path: str
) -> Tuple[List[Finding], Set[Tuple[int, str]]]:
    """Scoped suppressions used outside their sanctioned files.

    An ``allow`` comment for REP002 anywhere except its sanctioned
    seam would quietly re-open the bug class the rule closes, so the
    suppression itself is a violation (and cannot be suppressed).
    Returns the findings plus the ``(line, rule)`` keys they account
    for, so the unused-suppression audit does not double-report them.
    """
    findings: List[Finding] = []
    flagged: Set[Tuple[int, str]] = set()
    for lineno in sorted(suppressions):
        for rule_id in sorted(suppressions[lineno]):
            sanctioned = SUPPRESSION_SCOPE.get(rule_id)
            if sanctioned is not None and mod_path not in sanctioned:
                flagged.add((lineno, rule_id))
                findings.append(
                    Finding(
                        rule=rule_id,
                        path=path,
                        line=lineno,
                        col=0,
                        message=(
                            f"suppression of {rule_id} is only sanctioned in "
                            f"{sanctioned}; this file must satisfy the "
                            f"invariant instead"
                        ),
                    )
                )
            elif rule_id not in _RULE_IDS:
                flagged.add((lineno, rule_id))
                findings.append(
                    Finding(
                        rule="REP000",
                        path=path,
                        line=lineno,
                        col=0,
                        message=f"suppression names unknown rule {rule_id!r}",
                    )
                )
    return findings, flagged


def _dead_suppressions(
    suppressions: Dict[int, Set[str]], path: str, accounted: Set[Tuple[int, str]]
) -> List[Finding]:
    """REP011: every ``allow`` comment that suppressed nothing."""
    return [
        Finding(
            rule="REP011",
            path=path,
            line=lineno,
            col=0,
            message=(
                f"suppression `allow[{rule_id}]` matches no {rule_id} "
                f"finding on this line; remove the dead comment"
            ),
        )
        for lineno in sorted(suppressions)
        for rule_id in sorted(suppressions[lineno])
        if (lineno, rule_id) not in accounted
    ]


def lint_source(
    source: str,
    path: str,
    *,
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint one file's source text.

    Runs the rules whose scope covers *path*, drops the findings an
    ``allow`` comment on their line suppresses, and then (only when no
    ``select`` narrows the run, since a narrowed run cannot know what
    the other rules' suppressions catch) reports every ``allow``
    comment that suppressed nothing (REP011).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="REP000",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    mod_path = module_path(path)
    suppressions = _suppressions(source)
    findings, accounted = _unsanctioned_suppressions(suppressions, path, mod_path)
    for rule in rules:
        if select is not None and rule.id not in select:
            continue
        if not rule.applies(mod_path):
            continue
        for finding in rule.check(tree, path, mod_path):
            if finding.rule in suppressions.get(finding.line, ()):
                accounted.add((finding.line, finding.rule))
                continue
            findings.append(finding)
    if select is None:
        findings.extend(_dead_suppressions(suppressions, path, accounted))
    else:
        findings = [f for f in findings if f.rule in select or f.rule == "REP000"]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: str,
    *,
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint one file from disk."""
    with open(path, encoding="utf-8") as fp:
        source = fp.read()
    return lint_source(source, path, select=select, rules=rules)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(out)


def run_paths(
    paths: Iterable[str],
    *,
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint every ``.py`` file under *paths*, in path order."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, select=select, rules=rules))
    return findings


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def to_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """Findings as a SARIF 2.1.0 log (one run, one result per finding).

    The shape GitHub code scanning ingests: rule metadata on the tool
    driver, results referencing rules by index, physical locations with
    1-based lines/columns.
    """
    all_rules: List[Rule] = [*ALL_RULES, *AUDIT_RULES]
    known = {rule.id: i for i, rule in enumerate(all_rules)}
    rules_meta: List[Dict[str, object]] = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary or rule.id},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules
    ]
    results: List[Dict[str, object]] = []
    for finding in findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace(os.sep, "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        index = known.get(finding.rule)
        if index is not None:
            result["ruleIndex"] = index
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": (
                            "https://github.com/"  # repo-relative docs
                        ),
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }
