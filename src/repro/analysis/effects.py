"""Interprocedural effect summaries over the call graph.

For every analyzed function this module computes an
:class:`EffectSummary` — the function's externally visible effects on
the contracts the whole-program rules check:

**Process isolation** (REP008).  An object that escapes into a
``pmap`` / ``pmap_seeded`` / ``ProcessPoolExecutor`` fan-out is pickled
into worker processes; mutating it afterwards diverges the parent from
the workers' copies (or, on the in-process ``serial=True`` path,
mutates shared state under the workers' feet).  Summaries record
escape sites, per-parameter mutations (propagated through calls), and
— in the tests tree — treat session-/module-scoped pytest fixtures as
escaped-from-birth, which is exactly the shared-fixture write-through
bug PR 4's conftest guard could only catch at runtime.

**Set-order taint** (REP009).  A value whose iteration order derives
from a ``set`` keeps that arbitrary order through ``list``/``iter``/
comprehension transforms and across call boundaries; summaries track
whether a function *returns* unordered data and which parameters it
feeds into order-sensitive float reductions, so the taint is followed
through calls (the interprocedural generalization of REP006).
REP018 reuses the same taint inside the parity kernels' closure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_callgraph,
    own_nodes,
)

__all__ = [
    "Site",
    "EffectSummary",
    "Program",
    "build_program",
    "unordered_locals",
    "call_tainted_locals",
    "expr_unordered",
]

#: Entry points that fan work out into processes: (function qualname
#: suffix, parameter names whose arguments escape).  ``func`` itself is
#: included — with ``serial=True`` the "worker" shares this process.
_ESCAPE_CALLS = {
    "pmap": ("func", "items", "common"),
    "pmap_seeded": ("func", "items"),
}
_EXECUTOR_METHODS = frozenset({"submit", "map"})

#: Mutating method names on common containers/arrays.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "sort", "reverse", "fill",
        "partial_fit", "put", "itemset", "resize",
    }
)

#: Order-sensitive reducers (mirrors REP006's set).
_REDUCERS = frozenset({"sum", "fsum", "prod", "cumsum", "nansum", "mean", "std", "var"})

#: Calls whose result preserves the argument's (arbitrary) iteration
#: order — taint flows through.
_ORDER_PRESERVING = frozenset({"list", "iter", "tuple", "reversed", "enumerate"})

#: Calls that impose a canonical order — taint is cleansed.
_ORDER_CLEANSING = frozenset({"sorted", "sort", "min", "max", "len", "frozenset"})


@dataclass(frozen=True)
class Site:
    """One effect occurrence: where, and a short human label."""

    path: str
    lineno: int
    col: int
    detail: str


@dataclass
class EffectSummary:
    """Externally visible effects of one function (local + transitive)."""

    qualname: str
    # -- process isolation ---------------------------------------------
    escapes: List[Tuple[str, Site]] = field(default_factory=list)
    mutations: List[Tuple[str, Site]] = field(default_factory=list)
    mutated_params: Set[str] = field(default_factory=set)
    # -- set-order taint ------------------------------------------------
    returns_unordered: bool = False
    unordered_sink_params: Set[str] = field(default_factory=set)


@dataclass
class Program:
    """The whole-program analysis result the rules consume."""

    graph: CallGraph
    effects: Dict[str, EffectSummary]
    #: Shared pytest fixtures: name -> defining function qualname, for
    #: every ``@pytest.fixture(scope="session"|"module")`` in the tree.
    shared_fixtures: Dict[str, str]


# ----------------------------------------------------------------------
# Local (per-function) effect extraction
# ----------------------------------------------------------------------

def _root_name(node: ast.expr) -> Optional[str]:
    """Name at the root of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _escape_sites(fn: FunctionInfo, node: ast.Call) -> List[str]:
    """Names escaping into a worker pool through *node*, if any."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    escaped: List[str] = []
    if name in _ESCAPE_CALLS:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            root = _root_name(arg)
            if root is not None:
                escaped.append(root)
    elif (
        isinstance(func, ast.Attribute)
        and func.attr in _EXECUTOR_METHODS
        and fn.env is not None
    ):
        recv = fn.env.type_of(func.value)
        recv_name = _root_name(func.value)
        looks_like_executor = (
            (recv is not None and recv.split(".")[-1] == "ProcessPoolExecutor")
            or (recv_name is not None and "exec" in recv_name.lower())
            or (recv_name is not None and recv_name in ("pool", "ex"))
        )
        if looks_like_executor:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                root = _root_name(arg)
                if root is not None:
                    escaped.append(root)
    return escaped


def _mutation_of(node: ast.AST) -> Optional[Tuple[str, str, int, int]]:
    """(root name, detail, lineno, col) when *node* mutates a name."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for tgt in targets:
            if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                root = _root_name(tgt)
                if root is not None:
                    kind = (
                        "item assignment"
                        if isinstance(tgt, ast.Subscript)
                        else "attribute assignment"
                    )
                    return root, kind, tgt.lineno, tgt.col_offset
    elif isinstance(node, ast.Delete):
        for tgt in node.targets:
            if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                root = _root_name(tgt)
                if root is not None:
                    return root, "deletion", tgt.lineno, tgt.col_offset
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATORS:
            root = _root_name(node.func.value)
            if root is not None:
                return (
                    root,
                    f".{node.func.attr}(...)",
                    node.lineno,
                    node.col_offset,
                )
    return None


def _alias_map(fn: FunctionInfo) -> Dict[str, str]:
    """name -> ultimate root for plain attribute/subscript aliases.

    ``sub = part.trace`` makes mutating ``sub`` a mutation of ``part``;
    call results are deliberately *not* aliased (functions returning
    views are beyond a linter's reach — the runtime fixture guard
    stays as backstop).
    """
    aliases: Dict[str, str] = {}
    for node in own_nodes(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        tgt = node.targets[0]
        if not isinstance(tgt, ast.Name):
            continue
        value = node.value
        if isinstance(value, (ast.Attribute, ast.Subscript, ast.Name)):
            root = _root_name(value)
            if root is not None and root != tgt.id:
                aliases[tgt.id] = aliases.get(root, root)
    return aliases


def _local_isolation_effects(fn: FunctionInfo, summary: EffectSummary) -> None:
    """Escape sites, later mutations, and per-parameter mutations."""
    aliases = _alias_map(fn)

    def canon(name: str) -> str:
        return aliases.get(name, name)

    params = set(fn.params)
    nodes = sorted(
        own_nodes(fn.node), key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0))
    )
    for node in nodes:
        if isinstance(node, ast.Call):
            for name in _escape_sites(fn, node):
                summary.escapes.append(
                    (
                        canon(name),
                        Site(
                            fn.path,
                            node.lineno,
                            node.col_offset,
                            "escape into worker pool",
                        ),
                    )
                )
        hit = _mutation_of(node)
        if hit is not None:
            root, detail, lineno, col = hit
            root = canon(root)
            summary.mutations.append(
                (root, Site(fn.path, lineno, col, detail))
            )
            if root in params and root not in ("self", "cls"):
                summary.mutated_params.add(root)


def unordered_locals(fn: FunctionInfo, effects: Dict[str, EffectSummary]) -> Set[str]:
    """Names bound to set-order-tainted values in *fn* (one pass)."""
    tainted: Set[str] = set()

    def expr_tainted(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in ("set",):
                return True
            if name in _ORDER_CLEANSING:
                return False
            if name in _ORDER_PRESERVING:
                return bool(node.args) and expr_tainted(node.args[0])
            # through calls: a callee that returns unordered data
            site = _call_site_of(fn, node)
            if site is not None and site.callee is not None:
                callee = effects.get(site.callee)
                if callee is not None and callee.returns_unordered:
                    return True
            return False
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return any(expr_tainted(gen.iter) for gen in node.generators)
        return False

    for node in own_nodes(fn.node):
        if isinstance(node, ast.Assign):
            if expr_tainted(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        tainted.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if expr_tainted(node.value) and isinstance(node.target, ast.Name):
                tainted.add(node.target.id)
    return tainted


def call_tainted_locals(
    fn: FunctionInfo, effects: Dict[str, EffectSummary]
) -> Set[str]:
    """Names whose set-order taint arrived *through a call boundary*.

    The subset of :func:`unordered_locals` seeded only by calls to
    ``returns_unordered`` callees — the provenance REP009 reports on,
    leaving locally visible set literals to the intra-procedural
    REP006.
    """
    tainted: Set[str] = set()

    def expr_tainted(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Call):
            name = _callee_name(node)
            if name in _ORDER_CLEANSING:
                return False
            if name in _ORDER_PRESERVING:
                return bool(node.args) and expr_tainted(node.args[0])
            site = _call_site_of(fn, node)
            if site is not None and site.callee is not None:
                callee = effects.get(site.callee)
                if callee is not None and callee.returns_unordered:
                    return True
            return False
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return any(expr_tainted(gen.iter) for gen in node.generators)
        return False

    for node in own_nodes(fn.node):
        if isinstance(node, ast.Assign):
            if expr_tainted(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        tainted.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if expr_tainted(node.value) and isinstance(node.target, ast.Name):
                tainted.add(node.target.id)
    return tainted


def _call_site_of(fn: FunctionInfo, node: ast.Call) -> Optional[CallSite]:
    for site in fn.calls:
        if site.node is node:
            return site
    return None


# ----------------------------------------------------------------------
# Fixpoint propagation
# ----------------------------------------------------------------------

def _propagate(graph: CallGraph, effects: Dict[str, EffectSummary]) -> None:
    """Iterate summaries to a fixpoint over the call graph.

    Parameter mutations grow monotonically, so termination is bounded
    by the total number of parameters; the loop re-sweeps every
    function until a full sweep changes nothing (handles recursion and
    mutual recursion without special cases).
    """
    changed = True
    sweeps = 0
    limit = len(graph.functions) + 2
    while changed and sweeps <= limit:
        changed = False
        sweeps += 1
        for fn in graph.functions.values():
            summary = effects[fn.qualname]
            before = len(summary.mutated_params)
            for site in fn.calls:
                if site.callee is None:
                    continue
                callee = effects.get(site.callee)
                if callee is None:
                    continue
                # parameter mutation propagation: passing my param as a
                # positional arg into a mutating parameter of the callee
                callee_fn = graph.functions[site.callee]
                callee_params = list(callee_fn.params)
                if callee_fn.cls is not None and callee_params[:1] in (
                    ["self"], ["cls"]
                ):
                    callee_params = callee_params[1:]
                for i, arg in enumerate(site.node.args):
                    if i >= len(callee_params):
                        break
                    if not isinstance(arg, ast.Name):
                        continue
                    if callee_params[i] in callee.mutated_params:
                        if arg.id in fn.params:
                            if arg.id not in summary.mutated_params:
                                summary.mutated_params.add(arg.id)
                        anchor = (
                            arg.id,
                            Site(
                                fn.path,
                                site.lineno,
                                site.node.col_offset,
                                f"passed to {site.callee}, which mutates it",
                            ),
                        )
                        if anchor not in summary.mutations:
                            summary.mutations.append(anchor)
                for kw in site.node.keywords:
                    if kw.arg is None or not isinstance(kw.value, ast.Name):
                        continue
                    if kw.arg in callee.mutated_params:
                        anchor = (
                            kw.value.id,
                            Site(
                                fn.path,
                                site.lineno,
                                site.node.col_offset,
                                f"passed to {site.callee}, which mutates it",
                            ),
                        )
                        if anchor not in summary.mutations:
                            summary.mutations.append(anchor)
                        if kw.value.id in fn.params:
                            summary.mutated_params.add(kw.value.id)
            if len(summary.mutated_params) != before:
                changed = True


def _propagate_order_taint(
    graph: CallGraph, effects: Dict[str, EffectSummary]
) -> None:
    """Fixpoint for returns_unordered / unordered_sink_params."""
    changed = True
    sweeps = 0
    limit = len(graph.functions) + 2
    while changed and sweeps <= limit:
        changed = False
        sweeps += 1
        for fn in graph.functions.values():
            summary = effects[fn.qualname]
            tainted = unordered_locals(fn, effects)
            # returns
            for node in own_nodes(fn.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    if expr_unordered(fn, node.value, tainted, effects):
                        if not summary.returns_unordered:
                            summary.returns_unordered = True
                            changed = True
            # sink params: param -> local reducer, or param passed on to
            # a callee's sink param
            for node in own_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _callee_name(node)
                if name in _REDUCERS and node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Name) and arg.id in fn.params:
                        if arg.id not in summary.unordered_sink_params:
                            summary.unordered_sink_params.add(arg.id)
                            changed = True
                site = _call_site_of(fn, node)
                if site is not None and site.callee in effects:
                    callee = effects[site.callee]
                    callee_fn = graph.functions[site.callee]
                    callee_params = list(callee_fn.params)
                    if callee_fn.cls is not None and callee_params[:1] in (
                        ["self"], ["cls"]
                    ):
                        callee_params = callee_params[1:]
                    for i, arg in enumerate(node.args):
                        if i >= len(callee_params):
                            break
                        if (
                            isinstance(arg, ast.Name)
                            and arg.id in fn.params
                            and callee_params[i] in callee.unordered_sink_params
                            and arg.id not in summary.unordered_sink_params
                        ):
                            summary.unordered_sink_params.add(arg.id)
                            changed = True


def _callee_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def expr_unordered(
    fn: FunctionInfo,
    node: ast.expr,
    tainted: Set[str],
    effects: Dict[str, EffectSummary],
) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Call):
        name = _callee_name(node)
        if name == "set":
            return True
        if name in _ORDER_CLEANSING:
            return False
        if name in _ORDER_PRESERVING:
            return bool(node.args) and expr_unordered(
                fn, node.args[0], tainted, effects
            )
        site = _call_site_of(fn, node)
        if site is not None and site.callee in effects:
            return effects[site.callee].returns_unordered
        return False
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return any(
            expr_unordered(fn, gen.iter, tainted, effects)
            for gen in node.generators
        )
    return False


# ----------------------------------------------------------------------
# Shared pytest fixtures
# ----------------------------------------------------------------------

def _collect_shared_fixtures(graph: CallGraph) -> Dict[str, str]:
    """Session-/module-scoped ``@pytest.fixture`` functions by name."""
    out: Dict[str, str] = {}
    for fn in graph.functions.values():
        for deco in getattr(fn.node, "decorator_list", []):
            target = deco.func if isinstance(deco, ast.Call) else deco
            chain_parts: List[str] = []
            n: ast.AST = target
            while isinstance(n, ast.Attribute):
                chain_parts.append(n.attr)
                n = n.value
            if isinstance(n, ast.Name):
                chain_parts.append(n.id)
            chain_parts.reverse()
            if not chain_parts or chain_parts[-1] != "fixture":
                continue
            if not isinstance(deco, ast.Call):
                continue  # default scope is per-test: not shared
            for kw in deco.keywords:
                if (
                    kw.arg == "scope"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in ("session", "module", "package", "class")
                ):
                    out[fn.name] = fn.qualname
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_program(
    files: Sequence[Tuple[str, str]],
    *,
    trees: Optional[Dict[str, ast.Module]] = None,
) -> Program:
    """Parse *files*, build the call graph, and compute all summaries.

    *trees* lets the engine share ASTs already parsed by the per-file
    pass instead of re-parsing every module.
    """
    graph = build_callgraph(files, trees=trees)
    effects: Dict[str, EffectSummary] = {}
    for fn in graph.functions.values():
        summary = EffectSummary(qualname=fn.qualname)
        _local_isolation_effects(fn, summary)
        effects[fn.qualname] = summary
    _propagate(graph, effects)
    _propagate_order_taint(graph, effects)
    return Program(
        graph=graph,
        effects=effects,
        shared_fixtures=_collect_shared_fixtures(graph),
    )
