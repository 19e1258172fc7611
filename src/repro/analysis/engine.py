"""Lint driver: file discovery, suppressions, rule dispatch.

Separated from :mod:`repro.analysis.rules` so rules stay declarative
and the driver owns everything positional: path normalization, the
trailing ``allow[REP00x]`` suppression protocol, the whole-program
pass (call graph + effect summaries feeding the REP008+ rules), the
unused-suppression audit (REP011), and the policy that a scoped
suppression (REP002's) is only honored at its sanctioned files.
"""

from __future__ import annotations

import ast
import os
import re
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .effects import build_program
from .rules import (
    ALL_RULES,
    AUDIT_RULES,
    Finding,
    PROGRAM_RULES,
    ProgramRule,
    Rule,
    SUPPRESSION_SCOPE,
    module_path,
)

__all__ = [
    "Finding",
    "lint_source",
    "lint_sources",
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

_RULE_IDS = frozenset(
    rule.id for rule in (*ALL_RULES, *PROGRAM_RULES, *AUDIT_RULES)
)

#: Rules whose findings can never be silenced by an ``allow`` comment:
#: the audit rule itself (remove the dead comment instead of blessing it).
_UNSUPPRESSIBLE = frozenset({"REP011"})


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
) -> Tuple[List[Finding], Set[Tuple[str, int, str]]]:
    """Scoped suppressions used outside their sanctioned files.

    An ``allow`` comment for REP002 anywhere except its sanctioned
    seam would quietly re-open the bug class the rule closes, so the
    suppression itself is a violation (and cannot be suppressed).
    Returns the findings plus the ``(path, line, rule)`` keys they
    account for, so the unused-suppression audit does not
    double-report them.
    """
    findings: List[Finding] = []
    flagged: Set[Tuple[str, int, str]] = set()
    for lineno in sorted(suppressions):
        for rule_id in sorted(suppressions[lineno]):
            sanctioned = SUPPRESSION_SCOPE.get(rule_id)
            if sanctioned is not None and mod_path not in sanctioned:
                flagged.add((path, lineno, rule_id))
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
                flagged.add((path, lineno, rule_id))
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


def lint_source(
    source: str,
    path: str,
    *,
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint one file's source text (per-file rules only).

    The whole-program rules and the unused-suppression audit need the
    full tree; use :func:`lint_sources` / :func:`run_paths` for those.
    """
    findings, _ = _lint_one(source, path, select=select, rules=rules)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _lint_one(
    source: str,
    path: str,
    *,
    select: Optional[Sequence[str]],
    rules: Sequence[Rule],
    tree: Optional[ast.Module] = None,
) -> Tuple[List[Finding], "_FileState"]:
    state = _FileState(path=path, suppressions={}, flagged=set(), used=set())
    mod_path = module_path(path)
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return (
                [
                    Finding(
                        rule="REP000",
                        path=path,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}",
                    )
                ],
                state,
            )
    state.suppressions = _suppressions(source)
    scope_findings, state.flagged = _unsanctioned_suppressions(
        state.suppressions, path, mod_path
    )
    findings = list(scope_findings)
    for rule in rules:
        if select is not None and rule.id not in select:
            continue
        if not rule.applies(mod_path):
            continue
        for finding in rule.check(tree, path, mod_path):
            if finding.rule in state.suppressions.get(finding.line, ()):
                state.used.add((path, finding.line, finding.rule))
                continue
            findings.append(finding)
    if select is not None:
        findings = [f for f in findings if f.rule in select or f.rule == "REP000"]
    return findings, state


class _FileState:
    """Per-file suppression bookkeeping threaded through the passes."""

    def __init__(
        self,
        path: str,
        suppressions: Dict[int, Set[str]],
        flagged: Set[Tuple[str, int, str]],
        used: Set[Tuple[str, int, str]],
    ) -> None:
        self.path = path
        self.suppressions = suppressions
        self.flagged = flagged
        self.used = used


def lint_sources(
    files: Sequence[Tuple[str, str]],
    *,
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
    program_rules: Sequence[ProgramRule] = PROGRAM_RULES,
    audit_suppressions: Optional[bool] = None,
) -> List[Finding]:
    """Lint a set of ``(path, source)`` pairs as one program.

    Runs the per-file rules on each file, then — when any program rule
    is in play — builds the whole-program call graph/effect summaries
    once over *all* the files and runs the program rules on top.  Finally
    (by default only when no ``--select`` narrows the run, since a
    narrowed run cannot know what the other rules' suppressions catch)
    audits every ``allow`` comment that suppressed nothing (REP011).
    """
    audit = select is None if audit_suppressions is None else audit_suppressions
    findings: List[Finding] = []
    states: Dict[str, _FileState] = {}
    # Sort inputs and parse each file exactly once: the per-file pass
    # and the whole-program pass share the cached trees, and findings
    # (plus the baseline / SARIF output downstream) are independent of
    # the caller's directory-walk order.
    files = sorted(files, key=lambda pair: pair[0])
    trees: Dict[str, ast.Module] = {}
    for path, source in files:
        try:
            trees[path] = ast.parse(source, filename=path)
        except SyntaxError:
            pass  # _lint_one reports REP000; the program pass skips it
    for path, source in files:
        file_findings, state = _lint_one(
            source, path, select=select, rules=rules, tree=trees.get(path)
        )
        findings.extend(file_findings)
        states[path] = state

    active_program = [
        rule
        for rule in program_rules
        if select is None or rule.id in select
    ]
    if active_program:
        program = build_program(files, trees=trees)
        for rule in active_program:
            for finding in rule.check_program(program):
                state = states.get(finding.path)
                if (
                    state is not None
                    and finding.rule in state.suppressions.get(finding.line, ())
                    and finding.rule not in _UNSUPPRESSIBLE
                ):
                    state.used.add((finding.path, finding.line, finding.rule))
                    continue
                findings.append(finding)
        if select is not None:
            findings = [
                f for f in findings if f.rule in select or f.rule == "REP000"
            ]

    if audit:
        for path, state in states.items():
            for lineno in sorted(state.suppressions):
                for rule_id in sorted(state.suppressions[lineno]):
                    key = (path, lineno, rule_id)
                    if key in state.used or key in state.flagged:
                        continue
                    findings.append(
                        Finding(
                            rule="REP011",
                            path=path,
                            line=lineno,
                            col=0,
                            message=(
                                f"suppression `allow[{rule_id}]` matches no "
                                f"{rule_id} finding on this line; remove the "
                                f"dead comment"
                            ),
                        )
                    )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: str,
    *,
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint one file from disk (per-file rules only)."""
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
    program_rules: Sequence[ProgramRule] = PROGRAM_RULES,
    audit_suppressions: Optional[bool] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under *paths* as one program."""
    files: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fp:
            files.append((path, fp.read()))
    return lint_sources(
        files,
        select=select,
        rules=rules,
        program_rules=program_rules,
        audit_suppressions=audit_suppressions,
    )


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
    all_rules: List[Rule] = [*ALL_RULES, *PROGRAM_RULES, *AUDIT_RULES]
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
