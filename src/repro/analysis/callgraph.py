"""Module-level call graph over the analyzed tree.

The per-file rules (:mod:`repro.analysis.rules`) see one AST at a time,
so they cannot prove anything about *pairs* of functions: an object
escaping into a process-pool worker and mutated afterwards (REP008),
set-order taint crossing a call into a float reduction (REP009,
REP018), or a parity kernel reaching an untyped module (REP010).  This
module supplies the whole-program substrate: every analyzed file is
parsed once, functions and classes get stable qualified names
(``repro.trace.store.PartitionStore.append_partitions``), imports —
including relative ones — are resolved to those names, and every call
site is resolved to its callee where a lightweight type inference can
see it:

* ``name(...)`` through module-level defs and import aliases;
* ``self.m(...)`` through the enclosing class and its (project-local)
  bases;
* ``obj.m(...)`` / ``obj.attr.m(...)`` through inferred receiver types
  (parameter annotations, annotated ``self.x: T`` assignments,
  ``x = ClassName(...)`` constructor assignments, and annotated
  property returns);
* ``ClassName(...)`` to the class's ``__init__``.

Resolution is deliberately conservative: an unresolvable call simply
produces no edge, so downstream rules under-approximate reachability
rather than inventing it.  The graph is pure data — effect analysis
(:mod:`repro.analysis.effects`) and the whole-program rules are built
on top of it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "module_path",
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallGraph",
    "TypeEnv",
    "build_callgraph",
    "dotted_module",
    "own_nodes",
]


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
    if norm.startswith("repro/"):
        return norm
    return norm


def dotted_module(path: str) -> str:
    """Dotted module name for *path*, stable across checkouts.

    ``/any/prefix/src/repro/trace/store.py`` → ``repro.trace.store``;
    ``tests/test_stream.py`` → ``tests.test_stream``; a package
    ``__init__.py`` maps to the package itself.
    """
    mod = module_path(path)
    if mod.endswith(".py"):
        mod = mod[: -len(".py")]
    if mod.endswith("/__init__"):
        mod = mod[: -len("/__init__")]
    return mod.replace("/", ".")


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``callee`` is the resolved function qualname (``None`` when the
    target is outside the analyzed tree or could not be resolved);
    ``callee_module`` is filled whenever at least the defining module is
    known — REP010 needs the module even when the exact function is a
    class constructor or re-export.
    """

    node: ast.Call
    lineno: int
    callee: Optional[str]
    callee_module: Optional[str]


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str
    module: str
    path: str
    name: str
    cls: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    lineno: int
    end_lineno: int
    params: Tuple[str, ...]
    decorators: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    #: Per-function type environment, cached by :func:`build_callgraph`
    #: for the effect analysis.
    env: Optional["TypeEnv"] = None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ClassInfo:
    """One analyzed class: methods, bases, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...]
    methods: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> class qualname (from ``self.x: T = ...``,
    #: ``self.x = ClassName(...)``, and property return annotations).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed file."""

    name: str
    path: str
    tree: ast.Module
    #: local alias -> dotted target (module, class, or function).
    imports: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, and resolved call edges over a file set."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}

    # -- queries --------------------------------------------------------
    def callees_of(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def callers_of(self, qualname: str) -> Set[str]:
        return self.callers.get(qualname, set())

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """All functions reachable from *roots* through resolved edges."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            stack.extend(self.edges.get(fn, ()))
        return seen

    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """Class named *name* as seen from *module* (imports honored)."""
        info = self.modules.get(module)
        if info is not None and name in info.imports:
            target = info.imports[name]
            if target in self.classes:
                return self.classes[target]
        return self.classes.get(f"{module}.{name}")

    def method_of(self, cls: ClassInfo, method: str) -> Optional[str]:
        """Resolve *method* on *cls*, walking project-local bases."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c.qualname in seen:
                continue
            seen.add(c.qualname)
            if method in c.methods:
                return c.methods[method]
            for base in c.bases:
                if base in self.classes:
                    stack.append(self.classes[base])
        return None


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _package_of(module: str, path: str) -> str:
    """The package a module's relative imports resolve against."""
    if path.replace("\\", "/").endswith("__init__.py"):
        return module
    return module.rpartition(".")[0]


def _collect_imports(tree: ast.Module, module: str, path: str) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    package = _package_of(module, path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
                if name.asname:
                    aliases[name.asname] = name.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".") if package else []
                if node.level - 1 <= len(parts):
                    anchor = parts[: len(parts) - (node.level - 1)]
                else:  # over-deep relative import: unresolvable
                    continue
                base = ".".join(anchor + ([node.module] if node.module else []))
            for name in node.names:
                if name.name != "*":
                    aliases[name.asname or name.name] = f"{base}.{name.name}"
    return aliases


def _annotation_class(
    annotation: Optional[ast.expr], graph: CallGraph, module: str
) -> Optional[str]:
    """Class qualname named by an annotation, unwrapping Optional/quotes."""
    if annotation is None:
        return None
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):  # Optional[X] / "Mapping[K, X]" heads
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if head_name in ("Optional", "Annotated") and isinstance(
            node.slice, (ast.Name, ast.Attribute, ast.Constant)
        ):
            return _annotation_class(node.slice, graph, module)  # type: ignore[arg-type]
        return None
    if isinstance(node, ast.Name):
        cls = graph.resolve_class(module, node.id)
        return cls.qualname if cls else None
    if isinstance(node, ast.Attribute):
        chain = _dotted(node)
        if chain is None:
            return None
        resolved = _resolve_dotted(chain, graph.modules.get(module), graph)
        return resolved if resolved in graph.classes else None
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _resolve_dotted(
    chain: str, mod: Optional[ModuleInfo], graph: CallGraph
) -> Optional[str]:
    """Resolve a dotted name seen in *mod* to a graph qualname."""
    if mod is None:
        return None
    head, _, rest = chain.partition(".")
    target = mod.imports.get(head)
    if target is None:
        # a module-local def or class
        local = f"{mod.name}.{chain}"
        if local in graph.functions or local in graph.classes:
            return local
        return None
    full = f"{target}.{rest}" if rest else target
    if full in graph.functions or full in graph.classes:
        return full
    # ``import repro.core.batch as b; b.identify_batch`` — target is a
    # module; or ``from . import cycle; cycle.spectrum``.
    if target in graph.modules and rest:
        cand = f"{target}.{rest}"
        if cand in graph.functions or cand in graph.classes:
            return cand
    return None


class _FunctionCollector(ast.NodeVisitor):
    """First pass: register every function/method and class skeleton."""

    def __init__(self, graph: CallGraph, mod: ModuleInfo) -> None:
        self.graph = graph
        self.mod = mod
        self.class_stack: List[ClassInfo] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = f"{self.mod.name}.{node.name}"
        bases = tuple(b for b in (_dotted(base) for base in node.bases) if b)
        info = ClassInfo(
            qualname=qual, module=self.mod.name, name=node.name, bases=bases
        )
        self.graph.classes[qual] = info
        self.class_stack.append(info)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_func(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        cls = self.class_stack[-1] if self.class_stack else None
        qual = f"{cls.qualname}.{name}" if cls else f"{self.mod.name}.{name}"
        args = node.args  # type: ignore[attr-defined]
        params = tuple(
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        )
        decos = tuple(
            d for d in (_dotted(_deco_target(deco)) for deco in node.decorator_list)  # type: ignore[attr-defined]
            if d
        )
        info = FunctionInfo(
            qualname=qual,
            module=self.mod.name,
            path=self.mod.path,
            name=name,
            cls=cls.qualname if cls else None,
            node=node,
            lineno=node.lineno,  # type: ignore[attr-defined]
            end_lineno=getattr(node, "end_lineno", node.lineno),  # type: ignore[attr-defined]
            params=params,
            decorators=decos,
        )
        # latest definition wins (e.g. @overload stacks, conditional defs)
        self.graph.functions[qual] = info
        if cls is not None:
            cls.methods[name] = qual
        # nested defs are registered but resolved against the module scope
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)


def _deco_target(deco: ast.expr) -> ast.expr:
    return deco.func if isinstance(deco, ast.Call) else deco


def _class_bases_resolve(graph: CallGraph) -> None:
    """Second pass: rewrite base-name strings to class qualnames."""
    for cls in graph.classes.values():
        mod = graph.modules.get(cls.module)
        resolved = []
        for base in cls.bases:
            target = _resolve_dotted(base, mod, graph)
            resolved.append(target if target in graph.classes else base)
        cls.bases = tuple(resolved)


def _collect_attr_types(graph: CallGraph) -> None:
    """Infer ``self.x`` attribute types for every class.

    Sources, in priority order: annotated assignments
    (``self.x: T = ...``), dataclass-style class-level annotations,
    property return annotations, and constructor assignments
    (``self.x = ClassName(...)``).
    """
    for cls in graph.classes.values():
        mod = graph.modules.get(cls.module)
        for method_qual in cls.methods.values():
            fn = graph.functions[method_qual]
            is_property = any(d.split(".")[-1] == "property" for d in fn.decorators)
            if is_property:
                returns = getattr(fn.node, "returns", None)
                target = _annotation_class(returns, graph, cls.module)
                if target is not None:
                    cls.attr_types.setdefault(fn.name, target)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.AnnAssign) and _is_self_attr(node.target):
                    target = _annotation_class(node.annotation, graph, cls.module)
                    if target is not None:
                        cls.attr_types[node.target.attr] = target  # type: ignore[union-attr]
                elif isinstance(node, ast.Assign):
                    # ``self.x = param`` where the parameter is
                    # annotated with an in-tree class.
                    if isinstance(node.value, ast.Name):
                        ann = _param_annotation(fn, node.value.id)
                        target = _annotation_class(ann, graph, cls.module)
                        if target is not None:
                            for tgt in node.targets:
                                if _is_self_attr(tgt):
                                    attr = tgt.attr  # type: ignore[union-attr]
                                    cls.attr_types.setdefault(attr, target)
                        continue
                    # ``self.x = C(...)`` — or the defaulting idiom
                    # ``self.x = C(...) if x is None else x``, where
                    # either conditional arm naming a constructor pins
                    # the attribute type.
                    values: List[ast.expr] = [node.value]
                    if isinstance(node.value, ast.IfExp):
                        values = [node.value.body, node.value.orelse]
                    ctor = None
                    for value in values:
                        if not isinstance(value, ast.Call):
                            continue
                        chain = _dotted(value.func)
                        if chain is None:
                            continue
                        cand = _resolve_dotted(chain, mod, graph)
                        if cand is not None and cand in graph.classes:
                            ctor = cand
                            break
                    if ctor is None:
                        continue
                    for tgt in node.targets:
                        if _is_self_attr(tgt):
                            cls.attr_types.setdefault(tgt.attr, ctor)  # type: ignore[union-attr]
        # class-level annotations (dataclass fields)
        cls_node = _class_node(graph, cls)
        if cls_node is not None:
            for stmt in cls_node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    target = _annotation_class(stmt.annotation, graph, cls.module)
                    if target is not None:
                        cls.attr_types.setdefault(stmt.target.id, target)


def _param_annotation(fn: FunctionInfo, name: str) -> Optional[ast.expr]:
    """The annotation of *fn*'s parameter *name*, if any."""
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == name:
            return arg.annotation
    return None


def _class_node(graph: CallGraph, cls: ClassInfo) -> Optional[ast.ClassDef]:
    mod = graph.modules.get(cls.module)
    if mod is None:
        return None
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.name:
            return node
    return None


class TypeEnv:
    """Per-function local types: name -> class qualname."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.fn = fn
        self.mod = graph.modules.get(fn.module)
        self.names: Dict[str, str] = {}
        self._seed()

    def _seed(self) -> None:
        fn, graph = self.fn, self.graph
        args = fn.node.args  # type: ignore[attr-defined]
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if fn.cls is not None and all_args and all_args[0].arg in ("self", "cls"):
            self.names[all_args[0].arg] = fn.cls
            all_args = all_args[1:]
        for a in all_args:
            target = _annotation_class(a.annotation, graph, fn.module)
            if target is not None:
                self.names[a.arg] = target
        # straight-line constructor/alias assignments
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if not isinstance(tgt, ast.Name):
                    continue
                t = self.type_of(node.value)
                if t is not None:
                    self.names.setdefault(tgt.id, t)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                t = _annotation_class(node.annotation, graph, self.fn.module)
                if t is not None:
                    self.names[node.target.id] = t

    def type_of(self, node: ast.expr) -> Optional[str]:
        """Class qualname of *node*'s value, where inference can see it."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value)
            if base is not None and base in self.graph.classes:
                cls: Optional[ClassInfo] = self.graph.classes[base]
                while cls is not None:
                    if node.attr in cls.attr_types:
                        return cls.attr_types[node.attr]
                    parent = next(
                        (b for b in cls.bases if b in self.graph.classes), None
                    )
                    cls = self.graph.classes[parent] if parent else None
            return None
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain is not None:
                resolved = _resolve_dotted(chain, self.mod, self.graph)
                if resolved in self.graph.classes:
                    return resolved
                if resolved in self.graph.functions:
                    returns = getattr(
                        self.graph.functions[resolved].node, "returns", None
                    )
                    ret_cls = _annotation_class(
                        returns, self.graph, self.graph.functions[resolved].module
                    )
                    if ret_cls is not None:
                        return ret_cls
            # ``cls(...)`` inside a classmethod constructs the class
            if isinstance(node.func, ast.Name) and node.func.id == "cls":
                return self.names.get("cls")
            return None
        return None


def _resolve_call(
    call: ast.Call, env: TypeEnv, graph: CallGraph
) -> Tuple[Optional[str], Optional[str]]:
    """(callee qualname, callee module) for one call, best effort."""
    func = call.func
    # plain / dotted target through imports and module scope
    chain = _dotted(func)
    if chain is not None:
        resolved = _resolve_dotted(chain, env.mod, graph)
        if resolved in graph.functions:
            return resolved, graph.functions[resolved].module
        if resolved in graph.classes:
            init = graph.method_of(graph.classes[resolved], "__init__")
            mod = graph.classes[resolved].module
            return (init if init else None), mod
    # method call on a typed receiver
    if isinstance(func, ast.Attribute):
        recv_type = env.type_of(func.value)
        if recv_type is not None and recv_type in graph.classes:
            method = graph.method_of(graph.classes[recv_type], func.attr)
            if method is not None:
                return method, graph.functions[method].module
            return None, graph.classes[recv_type].module
    # ``cls(...)`` in a classmethod
    if isinstance(func, ast.Name) and func.id == "cls":
        cls_qual = env.names.get("cls")
        if cls_qual is not None and cls_qual in graph.classes:
            init = graph.method_of(graph.classes[cls_qual], "__init__")
            return (init if init else None), graph.classes[cls_qual].module
    return None, None


#: Memo for :func:`own_nodes`, keyed by node identity.  Function nodes
#: are walked by every effect collector and most program rules; the
#: walk is pure, so sharing one result per node is safe.  The node
#: itself is kept alongside the list to pin its lifetime (ids recycle).
_OWN_NODES_MEMO: Dict[int, Tuple[ast.AST, List[ast.AST]]] = {}


def own_nodes(fn_node: ast.AST) -> List[ast.AST]:
    """AST nodes belonging to *fn_node* but not to a nested def/class."""
    memo = _OWN_NODES_MEMO.get(id(fn_node))
    if memo is not None and memo[0] is fn_node:
        return memo[1]
    nested: Set[int] = set()
    out: List[ast.AST] = []
    for node in ast.walk(fn_node):
        if node is fn_node:
            continue
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            for sub in ast.walk(node):
                if sub is not node:
                    nested.add(id(sub))
    for node in ast.walk(fn_node):
        if node is not fn_node and id(node) not in nested:
            out.append(node)
    if len(_OWN_NODES_MEMO) > 65536:
        _OWN_NODES_MEMO.clear()
    _OWN_NODES_MEMO[id(fn_node)] = (fn_node, out)
    return out


def build_callgraph(
    files: Sequence[Tuple[str, str]],
    *,
    trees: Optional[Dict[str, ast.Module]] = None,
) -> CallGraph:
    """Build the graph over ``(path, source)`` pairs.

    Files that fail to parse are skipped (the per-file pass already
    reports the syntax error as REP000).  *trees* lets the engine share
    ASTs already parsed by the per-file pass instead of re-parsing
    every module.
    """
    graph = CallGraph()
    for path, source in files:
        tree = trees.get(path) if trees is not None else None
        if tree is None:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
        name = dotted_module(path)
        mod = ModuleInfo(name=name, path=path, tree=tree)
        graph.modules[name] = mod
    # imports need every module name known first
    for mod in graph.modules.values():
        mod.imports = _collect_imports(mod.tree, mod.name, mod.path)
    for mod in graph.modules.values():
        _FunctionCollector(graph, mod).visit(mod.tree)
    _class_bases_resolve(graph)
    _collect_attr_types(graph)
    # resolve every call site
    for fn in graph.functions.values():
        env = TypeEnv(graph, fn)
        fn.env = env
        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee, callee_module = _resolve_call(node, env, graph)
            fn.calls.append(
                CallSite(
                    node=node,
                    lineno=node.lineno,
                    callee=callee,
                    callee_module=callee_module,
                )
            )
            if callee is not None:
                graph.edges.setdefault(fn.qualname, set()).add(callee)
                graph.callers.setdefault(callee, set()).add(fn.qualname)
    return graph


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )
