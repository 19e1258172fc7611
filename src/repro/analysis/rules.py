"""The REP rule set: repo-specific invariants as AST checks.

Each rule is a small, stateless class: ``applies(mod_path)`` scopes it
to the part of the tree whose contract it encodes, and ``check(...)``
yields findings.  ``mod_path`` is the path from the ``repro`` package
root (``"repro/core/batch.py"``) for library files, or the normalized
input path for everything else (tests, benchmarks, examples), so rules
can be scoped precisely no matter where the tree is checked out.

Rules deliberately over-approximate: a pattern that is *sometimes*
legitimate still fires and carries a ``# repro: allow[REP00x]``
suppression at the call site, which turns every exception to an
invariant into a reviewable, greppable artifact.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .callgraph import module_path, own_nodes
from .effects import (
    Program,
    Site,
    call_tainted_locals,
    expr_unordered,
    unordered_locals,
)

__all__ = [
    "Finding",
    "Rule",
    "ProgramRule",
    "ALL_RULES",
    "PROGRAM_RULES",
    "AUDIT_RULES",
    "SUPPRESSION_SCOPE",
    "module_path",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


#: Files whose broad ``except`` handlers are the sanctioned containment
#: seams: every caught exception is converted into a typed
#: ``WorkerError`` there, and *only* there.  REP002 suppression comments
#: anywhere else are themselves violations.
CONTAINMENT_SEAMS = (
    "repro/parallel/pool.py",
)

#: Rules whose suppression comments are only honored in specific files.
SUPPRESSION_SCOPE: Dict[str, Tuple[str, ...]] = {
    "REP002": CONTAINMENT_SEAMS,
}

#: Parity-critical kernels: every float op here must be bit-for-bit
#: reproducible between the serial and batched backends.
PARITY_FILES = (
    "repro/core/batch.py",
    "repro/core/cycle.py",
    "repro/core/superposition.py",
    "repro/core/changepoint.py",
    "repro/core/interpolation.py",
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical dotted module/function name.

    Covers ``import numpy as np`` (``np -> numpy``) and
    ``from time import perf_counter as pc`` (``pc -> time.perf_counter``).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name != "*":
                    aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def canonical(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted chain with its head import alias resolved.

    ``_dt.datetime.now`` under ``import datetime as _dt`` becomes
    ``datetime.datetime.now``; a bare ``perf_counter`` imported from
    ``time`` becomes ``time.perf_counter``.
    """
    chain = dotted_name(node)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    resolved = aliases.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


class Rule:
    """Base class: one identifier, one scope, one AST check."""

    id = "REP000"
    summary = ""

    def applies(self, mod_path: str) -> bool:
        raise NotImplementedError

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _is_library(mod_path: str) -> bool:
    return mod_path.startswith("repro/")


_MUTABLE_DEFAULTS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
    ast.GeneratorExp,
)

#: Calls producing immutable values that are safe to share at def time.
_IMMUTABLE_FACTORIES = frozenset({"tuple", "frozenset", "frozendict"})


class MutableDefaultRule(Rule):
    """REP001 — no mutable or call-expression argument defaults.

    A default is evaluated once, at ``def`` time; a mutable value or a
    constructed object (``config=PipelineConfig()``) is then shared by
    every call in the process.  PR 2 shipped exactly this bug: one
    process-wide ``PipelineConfig`` instance reachable (and mutable via
    ``object.__setattr__``) from every pipeline call.  Use ``None`` and
    construct per call.
    """

    id = "REP001"
    summary = "mutable/shared default argument (construct per call, default to None)"

    def applies(self, mod_path: str) -> bool:
        return True

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults)
                defaults += [d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    yield from self._check_default(path, node, default)
            elif isinstance(node, ast.ClassDef) and self._is_dataclass(node):
                yield from self._check_dataclass_fields(path, node)

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            chain = dotted_name(target)
            if chain is not None and chain.split(".")[-1] == "dataclass":
                return True
        return False

    def _check_dataclass_fields(
        self, path: str, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        """Dataclass field defaults share one instance across objects.

        ``field(default_factory=...)`` is the sanctioned per-instance
        pattern; a literal container or a constructor call as a field
        default is the class-level twin of the shared-argument bug.
        """
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                continue
            default = stmt.value
            if isinstance(default, _MUTABLE_DEFAULTS):
                kind = type(default).__name__.lower()
                yield self.finding(
                    path,
                    default,
                    f"mutable dataclass field default ({kind}) in "
                    f"`{cls.name}` is shared across instances; use "
                    f"field(default_factory=...)",
                )
            elif isinstance(default, ast.Call):
                callee = dotted_name(default.func) or "<call>"
                tail = callee.split(".")[-1]
                if tail == "field" or tail in _IMMUTABLE_FACTORIES:
                    continue
                yield self.finding(
                    path,
                    default,
                    f"dataclass field default `{callee}(...)` in "
                    f"`{cls.name}` runs once at class-definition time and "
                    f"shares one instance across every object; use "
                    f"field(default_factory={callee})",
                )

    def _check_default(
        self, path: str, func: ast.AST, default: ast.expr
    ) -> Iterator[Finding]:
        name = getattr(func, "name", "<lambda>")
        if isinstance(default, _MUTABLE_DEFAULTS):
            kind = type(default).__name__.lower()
            yield self.finding(
                path,
                default,
                f"mutable default ({kind}) in `{name}` is shared across calls; "
                f"default to None and construct inside the body",
            )
        elif isinstance(default, ast.Call):
            callee = dotted_name(default.func) or "<call>"
            if callee.split(".")[-1] in _IMMUTABLE_FACTORIES:
                return
            yield self.finding(
                path,
                default,
                f"call `{callee}(...)` as default of `{name}` runs once at def "
                f"time and shares one instance across every call "
                f"(the PR 2 `config=PipelineConfig()` bug class); "
                f"default to None and construct per call",
            )


class BroadExceptRule(Rule):
    """REP002 — broad ``except`` only at the sanctioned containment seams.

    Catch-all handlers silently swallow programming errors.  The fault
    containment model allows exactly one seam to catch ``Exception``
    — ``repro/parallel/pool.py`` (per-work-item containment, routing to
    ``WorkerError``).  Everything else must catch specific types or
    route through that seam (``repro.parallel.pool.run_guarded``).
    """

    id = "REP002"
    summary = "broad/bare except outside the sanctioned containment seams"

    _BROAD = frozenset({"Exception", "BaseException"})

    def applies(self, mod_path: str) -> bool:
        return _is_library(mod_path)

    def _is_broad(self, exc_type: Optional[ast.expr]) -> bool:
        if exc_type is None:
            return True
        if isinstance(exc_type, ast.Tuple):
            return any(self._is_broad(e) for e in exc_type.elts)
        chain = dotted_name(exc_type)
        return chain is not None and chain.split(".")[-1] in self._BROAD

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node.type):
                caught = "bare except" if node.type is None else "except Exception"
                yield self.finding(
                    path,
                    node,
                    f"{caught} outside the sanctioned containment seams "
                    f"{CONTAINMENT_SEAMS}; catch specific exceptions or route "
                    f"through repro.parallel.pool.run_guarded / "
                    f"repro.obs.LightFailure",
                )


class RngSeamRule(Rule):
    """REP003 — RNGs enter library code via ``as_rng``/``seed_sequence_for``.

    A ``np.random.default_rng()`` (or legacy global ``np.random.*`` /
    stdlib ``random``) call buried in library code creates a stream the
    caller cannot seed, so results stop being reproducible across runs
    and worker scheduling orders.  All randomness flows through
    ``repro._util.as_rng`` / ``seed_sequence_for``, which accept and
    thread caller-provided seeds.
    """

    id = "REP003"
    summary = "RNG constructed outside the _util.as_rng/seed_sequence_for seams"

    #: np.random attributes that are types/seeds, not entropy sources.
    _ALLOWED_NP_RANDOM = frozenset({"Generator", "SeedSequence", "BitGenerator"})

    #: In the tests tree the test *is* the caller, so seeding its own
    #: ``default_rng(seed)`` is the reproducible pattern, and the
    #: conftest RNG guard must read ``get_state``.  Global entropy
    #: (``np.random.seed``/``rand``/...) and stdlib ``random`` stay
    #: banned there too.
    _ALLOWED_NP_RANDOM_TESTS = _ALLOWED_NP_RANDOM | frozenset(
        {"default_rng", "get_state"}
    )

    def applies(self, mod_path: str) -> bool:
        return mod_path != "repro/_util.py"

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        allowed = (
            self._ALLOWED_NP_RANDOM
            if _is_library(mod_path)
            else self._ALLOWED_NP_RANDOM_TESTS
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random":
                        yield self.finding(
                            path,
                            node,
                            "stdlib `random` is process-global state; thread a "
                            "numpy Generator via repro._util.as_rng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level != 0:
                    continue
                if node.module == "random":
                    yield self.finding(
                        path,
                        node,
                        "stdlib `random` is process-global state; thread a "
                        "numpy Generator via repro._util.as_rng instead",
                    )
                elif node.module == "numpy.random":
                    # a from-import binds a bare name the Attribute
                    # branch below never sees
                    for name in node.names:
                        if name.name not in allowed:
                            yield self._bypass(path, node, f"numpy.random.{name.name}")
            elif isinstance(node, ast.Attribute):
                chain = canonical(node, aliases)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) >= 3
                    and parts[0] == "numpy"
                    and parts[1] == "random"
                    and parts[2] not in allowed
                ):
                    yield self._bypass(path, node, chain)

    def _bypass(self, path: str, node: ast.AST, name: str) -> Finding:
        return self.finding(
            path,
            node,
            f"`{name}` bypasses the RNG seams; use "
            f"repro._util.as_rng / seed_sequence_for so callers "
            f"control the stream",
        )


class WallClockRule(Rule):
    """REP004 — no wall-clock reads in ``repro.core`` / ``repro.trace``.

    Identification and trace handling are pure functions of their
    inputs; a hidden clock read makes a result impossible to reproduce
    and silently couples kernels to the host.  Timing belongs to the
    telemetry layer (``repro.obs.StageTelemetry`` /
    ``RunReport.run_timer``), which the pipeline threads explicitly.
    """

    id = "REP004"
    summary = "wall-clock read in repro.core/repro.trace (telemetry goes through repro.obs)"

    _CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.clock_gettime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def applies(self, mod_path: str) -> bool:
        return mod_path.startswith(("repro/core/", "repro/trace/"))

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = canonical(node.func, aliases)
            if chain in self._CLOCKS:
                yield self.finding(
                    path,
                    node,
                    f"`{chain}()` reads the host clock inside a deterministic "
                    f"layer; route timing through repro.obs "
                    f"(StageTelemetry / RunReport.run_timer)",
                )


class ParityDtypeRule(Rule):
    """REP005 — explicit dtypes in the parity-critical kernels.

    The batched backend's bit-for-bit contract holds only in float64:
    a float32 downcast, or an ``np.asarray(x)`` whose dtype floats with
    the caller's input, changes rounding and breaks serial/batched
    equality on the last bit.  Every array coercion in the kernel files
    names its dtype.
    """

    id = "REP005"
    summary = "float32 downcast or dtype-ambiguous coercion in a parity kernel"

    _COERCIONS = frozenset({"asarray", "ascontiguousarray", "array", "frombuffer"})
    _F32 = frozenset({"float32", "single", "half", "float16"})
    _F32_STRINGS = frozenset({"float32", "float16", "f4", "f2", "<f4", ">f4"})
    #: Sub-float64 dtype spellings only meaningful *in dtype position*
    #: (a bare "f" constant elsewhere is not a dtype).
    _F32_DTYPE_STRINGS = _F32_STRINGS | frozenset({"f", "e", "<f2", ">f2"})
    #: float64-in-fact but ambiguous spellings: the builtin ``float``
    #: and its string twin leave the reader (and grep) unsure the
    #: parity contract is intentional — write ``np.float64``.
    _AMBIGUOUS_DTYPES = frozenset({"float"})

    def applies(self, mod_path: str) -> bool:
        return mod_path in PARITY_FILES

    def _dtype_spelling(
        self, path: str, expr: ast.expr, context: str
    ) -> Iterator[Finding]:
        """Ambiguous / sub-float64 spellings in dtype position."""
        if isinstance(expr, ast.Name) and expr.id in self._AMBIGUOUS_DTYPES:
            yield self.finding(
                path,
                expr,
                f"{context} uses the builtin `float` as a dtype: float64 in "
                f"fact but ambiguous in spelling; write np.float64 so the "
                f"parity contract is explicit",
            )
        elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            if expr.value in self._AMBIGUOUS_DTYPES:
                yield self.finding(
                    path,
                    expr,
                    f"{context} spells the dtype as {expr.value!r}; write "
                    f"np.float64 so the parity contract is explicit",
                )
            elif (
                expr.value in self._F32_DTYPE_STRINGS
                and expr.value not in self._F32_STRINGS
                # _F32_STRINGS fire from the position-independent
                # constant scan; don't report those twice
            ):
                yield self.finding(
                    path,
                    expr,
                    f"{context} dtype {expr.value!r} downcasts below float64 "
                    f"in a parity-critical kernel",
                )

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = dotted_name(node)
                if chain is None:
                    continue
                parts = chain.split(".")
                if parts[0] in ("np", "numpy") and parts[-1] in self._F32:
                    yield self.finding(
                        path,
                        node,
                        f"`{chain}` downcasts below float64 in a parity-critical "
                        f"kernel; the serial/batched bit-for-bit contract holds "
                        f"only in float64",
                    )
            elif isinstance(node, ast.Constant):
                if isinstance(node.value, str) and node.value in self._F32_STRINGS:
                    yield self.finding(
                        path,
                        node,
                        f"dtype string {node.value!r} downcasts below float64 "
                        f"in a parity-critical kernel",
                    )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                ):
                    yield from self._dtype_spelling(
                        path, node.args[0], ".astype(...)"
                    )
                chain = dotted_name(node.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if parts[0] not in ("np", "numpy"):
                    continue
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        yield from self._dtype_spelling(
                            path, kw.value, f"`{chain}(...)`"
                        )
                if parts[-1] not in self._COERCIONS:
                    continue
                if len(node.args) >= 2:
                    yield from self._dtype_spelling(
                        path, node.args[1], f"`{chain}(...)`"
                    )
                has_dtype = len(node.args) >= 2 or any(
                    kw.arg == "dtype" for kw in node.keywords
                )
                if not has_dtype:
                    yield self.finding(
                        path,
                        node,
                        f"`{chain}(...)` without an explicit dtype inherits the "
                        f"caller's (possibly float32) dtype; pass "
                        f"dtype=np.float64 to pin the parity contract",
                    )


class SetOrderRule(Rule):
    """REP006 — set iteration order must not feed numeric reductions.

    ``set`` iteration order depends on insertion history and hash
    randomization; a float sum over it is not associative-stable, so
    the same city can produce different last bits run to run.  Sort
    first (``sorted(s)``) or accumulate over an ordered container.
    """

    id = "REP006"
    summary = "iteration/accumulation over a set feeds an order-sensitive reduction"

    _REDUCERS = frozenset({"sum", "fsum", "prod", "cumsum", "nansum", "mean", "std", "var"})

    def applies(self, mod_path: str) -> bool:
        return True

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            return chain in ("set", "frozenset")
        return False

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and self._is_set_expr(node.iter):
                yield self.finding(
                    path,
                    node.iter,
                    "iterating a set directly: order is arbitrary; "
                    "iterate sorted(...) so downstream arithmetic is "
                    "order-stable",
                )
            elif isinstance(node, ast.comprehension) and self._is_set_expr(node.iter):
                yield self.finding(
                    path,
                    node.iter,
                    "comprehension over a set: order is arbitrary; "
                    "iterate sorted(...) so downstream arithmetic is "
                    "order-stable",
                )
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain is None or not node.args:
                    continue
                parts = chain.split(".")
                is_reducer = parts[-1] in self._REDUCERS and (
                    len(parts) == 1 or parts[0] in ("np", "numpy", "math")
                )
                if is_reducer and self._is_set_expr(node.args[0]):
                    yield self.finding(
                        path,
                        node.args[0],
                        f"`{chain}` over a set accumulates in arbitrary order; "
                        f"float reductions must run over sorted(...) input",
                    )


# ----------------------------------------------------------------------
# Whole-program rules (REP008+): consume the call-graph/effect engine
# ----------------------------------------------------------------------


class ProgramRule:
    """Base for rules over interprocedural effect summaries.

    Unlike :class:`Rule`, these see the whole analyzed tree at once (a
    :class:`~repro.analysis.effects.Program`); per-line suppressions
    still apply to their findings.
    """

    id = "REP000"
    summary = ""

    def check_program(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(rule=self.id, path=path, line=line, col=col, message=message)


def _in_library(path: str) -> bool:
    return module_path(path).startswith("repro/")


class WorkerEscapeRule(ProgramRule):
    """REP008 — nothing captured by a worker fan-out is mutated after.

    ``pmap``/``pmap_seeded``/``ProcessPoolExecutor`` pickle their
    arguments into worker processes; a later mutation in the parent
    diverges parent and workers (and on the in-process ``serial=True``
    path mutates state the "workers" still share).  In the tests tree
    the same contract binds session-/module-scoped pytest fixtures:
    they are shared across tests by construction, so any mutation —
    direct or through a helper — makes results order-dependent (the
    bug PR 4's conftest fingerprint guard caught only at runtime).
    """

    id = "REP008"
    summary = "object escaping into a worker fan-out (or shared fixture) mutated afterwards"

    @staticmethod
    def _is_test_or_fixture(fn_node: ast.AST, name: str) -> bool:
        if name.startswith("test_"):
            return True
        for deco in getattr(fn_node, "decorator_list", []):
            target = deco.func if isinstance(deco, ast.Call) else deco
            chain = dotted_name(target)
            if chain is not None and chain.split(".")[-1] == "fixture":
                return True
        return False

    def check_program(self, program: Program) -> Iterator[Finding]:
        for qualname in sorted(program.graph.functions):
            fn = program.graph.functions[qualname]
            summary = program.effects[qualname]
            first_escape: Dict[str, Site] = {}
            for name, site in summary.escapes:
                prev = first_escape.get(name)
                if prev is None or site.lineno < prev.lineno:
                    first_escape[name] = site
            seen: set = set()
            for name, msite in summary.mutations:
                esc = first_escape.get(name)
                if esc is not None and msite.lineno > esc.lineno:
                    key = (msite.path, msite.lineno, name)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding_at(
                        msite.path,
                        msite.lineno,
                        msite.col,
                        f"`{name}` escaped into a worker fan-out at line "
                        f"{esc.lineno} and is mutated afterwards "
                        f"({msite.detail}); workers hold the pre-mutation "
                        f"copy, so results depend on scheduling",
                    )
            if _in_library(fn.path):
                continue
            if not self._is_test_or_fixture(fn.node, fn.name):
                continue
            for name, msite in summary.mutations:
                if name not in fn.params or name not in program.shared_fixtures:
                    continue
                if program.shared_fixtures[name] == qualname:
                    continue  # the fixture may build its own value
                key = (msite.path, msite.lineno, name)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding_at(
                    msite.path,
                    msite.lineno,
                    msite.col,
                    f"`{qualname}` mutates `{name}` ({msite.detail}), a "
                    f"session/module-scoped fixture shared across tests; "
                    f"copy it (or narrow the fixture scope) instead",
                )


class CrossCallSetOrderRule(ProgramRule):
    """REP009 — set-order taint must not reach reductions through calls.

    The intra-procedural REP006 sees ``sum(a_set)``; it is blind when
    the set is built in one function and reduced in another.  This rule
    follows the taint across call boundaries in both directions: a
    callee that *returns* set-ordered data feeding a local float
    reduction, and a locally tainted value passed into a callee
    parameter that feeds one.
    """

    id = "REP009"
    summary = "set-iteration-order taint reaches a float reduction through a call"

    _REDUCERS = SetOrderRule._REDUCERS

    def check_program(self, program: Program) -> Iterator[Finding]:
        effects = program.effects
        for qualname in sorted(program.graph.functions):
            fn = program.graph.functions[qualname]
            tainted = unordered_locals(fn, effects)
            via_call = call_tainted_locals(fn, effects)
            for node in own_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_name(node.func)
                parts = chain.split(".") if chain else []
                is_reducer = bool(parts) and parts[-1] in self._REDUCERS and (
                    len(parts) == 1 or parts[0] in ("np", "numpy", "math")
                )
                if is_reducer and node.args:
                    arg = node.args[0]
                    fires = False
                    if isinstance(arg, ast.Name) and arg.id in via_call:
                        fires = True
                    elif isinstance(arg, ast.Call):
                        fires = expr_unordered(fn, arg, via_call, effects)
                    if fires:
                        yield self.finding_at(
                            fn.path,
                            arg.lineno,
                            arg.col_offset,
                            f"`{chain}` in `{qualname}` reduces a value whose "
                            f"iteration order came from a set in a *callee*; "
                            f"sort before reducing (REP006's cross-call twin)",
                        )
                # locally tainted value handed to a callee's reducer
                site = None
                for cs in fn.calls:
                    if cs.node is node:
                        site = cs
                        break
                if site is None or site.callee not in effects:
                    continue
                callee_summary = effects[site.callee]
                if not callee_summary.unordered_sink_params:
                    continue
                callee_fn = program.graph.functions[site.callee]
                callee_params = list(callee_fn.params)
                if callee_fn.cls is not None and callee_params[:1] in (
                    ["self"], ["cls"]
                ):
                    callee_params = callee_params[1:]
                for i, arg in enumerate(node.args):
                    if i >= len(callee_params):
                        break
                    if callee_params[i] not in callee_summary.unordered_sink_params:
                        continue
                    if expr_unordered(fn, arg, tainted, effects):
                        yield self.finding_at(
                            fn.path,
                            arg.lineno,
                            arg.col_offset,
                            f"set-ordered value flows from `{qualname}` into "
                            f"`{site.callee}` parameter "
                            f"`{callee_params[i]}`, which feeds an "
                            f"order-sensitive float reduction; sort at the "
                            f"boundary",
                        )


class StrictFrontierRule(ProgramRule):
    """REP010 — parity kernels only call into the mypy-strict frontier.

    The bit-for-bit serial/batched/stream contract is only as strong as
    the types it flows through: a parity-reachable call into an
    untyped module is where an accidental float32 or object-dtype array
    enters unchecked.  ``STRICT_MODULES`` mirrors the
    ``[[tool.mypy.overrides]]`` strict tier in ``pyproject.toml``
    (asserted in tests); extend both together.
    """

    id = "REP010"
    summary = "function reachable from the parity kernels calls a non-strict-typed module"

    #: Mirror of pyproject's strict-override list.  mypy's ``foo.*``
    #: matches ``foo`` itself as well, so each glob entry appears in
    #: both spellings.
    STRICT_MODULES: Tuple[str, ...] = (
        "repro._util",
        "repro.analysis", "repro.analysis.*",
        "repro.core", "repro.core.*",
        "repro.eval.frontier",
        "repro.lights.controller",
        "repro.lights.schedule",
        "repro.matching.partition",
        "repro.network.geometry",
        "repro.obs", "repro.obs.*",
        "repro.parallel", "repro.parallel.*",
        "repro.serve", "repro.serve.*",
        "repro.stream", "repro.stream.*",
        "repro.trace", "repro.trace.*",
    )

    @classmethod
    def _is_strict(cls, module: str) -> bool:
        return any(fnmatch(module, pat) for pat in cls.STRICT_MODULES)

    def check_program(self, program: Program) -> Iterator[Finding]:
        roots = [
            qualname
            for qualname, fn in program.graph.functions.items()
            if module_path(fn.path) in PARITY_FILES
        ]
        reachable = program.graph.reachable_from(roots)
        seen: set = set()
        for qualname in sorted(reachable):
            fn = program.graph.functions[qualname]
            for site in fn.calls:
                module = site.callee_module
                if module is None or not module.startswith("repro."):
                    continue
                if self._is_strict(module):
                    continue
                key = (fn.path, site.lineno, module)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding_at(
                    fn.path,
                    site.lineno,
                    site.node.col_offset,
                    f"`{qualname}` is reachable from the parity kernels but "
                    f"calls into `{module}`, outside the mypy-strict "
                    f"frontier; add the module to the strict tier (pyproject "
                    f"+ STRICT_MODULES) or break the dependency",
                )


class UnusedSuppressionRule(Rule):
    """REP011 — a suppression that suppresses nothing is a finding.

    Mirrors ruff's RUF100: stale ``allow`` comments read as standing
    exemptions and hide real regressions when the code around them
    changes.  The check itself lives in the engine (it needs the full
    per-file *and* program finding sets to know what each comment
    caught); this class carries the id/summary for ``--list-rules``,
    ``--select`` validation, and SARIF metadata.  REP011 findings are
    not themselves suppressible — remove the dead comment instead.
    """

    id = "REP011"
    summary = "suppression comment that suppresses nothing (remove it)"

    def applies(self, mod_path: str) -> bool:
        return False

    def check(self, tree: ast.AST, path: str, mod_path: str) -> Iterator[Finding]:
        return iter(())


class ReductionOrderRule(ProgramRule):
    """REP018 — parity-reachable reductions must be order-stable.

    Float addition is not associative: the same multiset of addends
    summed in two different orders can differ in the last bit, which
    is exactly the bit the golden fixtures pin.  Within the closure of
    code reachable from the parity kernels this rule flags the three
    ways an unstable order sneaks into a reduction: reducing a
    set-order-tainted value (``unordered_locals`` provenance, the
    interprocedural REP006/REP009 machinery), accumulating in a loop
    whose iteration order derives from a set, and ``math.fsum`` —
    whose compensated result differs from ``np.sum``'s pairwise one —
    anywhere outside the documented ``FSUM_SEAMS`` allowlist.
    """

    id = "REP018"
    summary = "order-unstable reduction inside the parity-reachable closure"

    #: Documented seams allowed to mix ``math.fsum`` into the parity
    #: closure.  Empty by design: the parity tier pins *one* summation
    #: scheme (NumPy's pairwise), and a seam earns its row here only
    #: with a golden fixture proving the scheme change is contained.
    FSUM_SEAMS: Tuple[str, ...] = ()

    _REDUCERS = SetOrderRule._REDUCERS

    def check_program(self, program: Program) -> Iterator[Finding]:
        graph = program.graph
        effects = program.effects
        roots = [
            q
            for q, fn in graph.functions.items()
            if module_path(fn.path) in PARITY_FILES
        ]
        reachable = graph.reachable_from(roots)
        for qualname in sorted(reachable):
            fn = graph.functions.get(qualname)
            if fn is None:
                continue
            tainted = unordered_locals(fn, effects)
            for node in own_nodes(fn.node):
                if isinstance(node, ast.Call):
                    chain = dotted_name(node.func)
                    parts = chain.split(".") if chain else []
                    if not parts:
                        continue
                    if parts[-1] == "fsum" and (
                        len(parts) == 1 or parts[0] == "math"
                    ):
                        if qualname not in self.FSUM_SEAMS:
                            yield self.finding_at(
                                fn.path,
                                node.lineno,
                                node.col_offset,
                                f"`{chain}` in parity-reachable `{qualname}` "
                                f"mixes fsum's compensated summation with "
                                f"np.sum's pairwise scheme; the parity tier "
                                f"pins one reduction order (see "
                                f"ReductionOrderRule.FSUM_SEAMS)",
                            )
                    is_reducer = parts[-1] in self._REDUCERS and (
                        len(parts) == 1 or parts[0] in ("np", "numpy", "math")
                    )
                    if (
                        is_reducer
                        and node.args
                        and expr_unordered(fn, node.args[0], tainted, effects)
                    ):
                        yield self.finding_at(
                            fn.path,
                            node.args[0].lineno,
                            node.args[0].col_offset,
                            f"`{chain}` in parity-reachable `{qualname}` "
                            f"reduces set-order-tainted data; the reduction "
                            f"order must be canonical (sort first)",
                        )
                elif isinstance(node, ast.For):
                    if not expr_unordered(fn, node.iter, tainted, effects):
                        continue
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.AugAssign) and isinstance(
                            sub.op, (ast.Add, ast.Mult)
                        ):
                            yield self.finding_at(
                                fn.path,
                                sub.lineno,
                                sub.col_offset,
                                f"accumulation in `{qualname}` inside a loop "
                                f"whose iteration order derives from a set; "
                                f"parity-reachable accumulation must iterate "
                                f"a canonical order (sorted(...))",
                            )
                            break


ALL_RULES: Sequence[Rule] = (
    MutableDefaultRule(),
    BroadExceptRule(),
    RngSeamRule(),
    WallClockRule(),
    ParityDtypeRule(),
    SetOrderRule(),
)

PROGRAM_RULES: Sequence[ProgramRule] = (
    WorkerEscapeRule(),
    CrossCallSetOrderRule(),
    StrictFrontierRule(),
    ReductionOrderRule(),
)

AUDIT_RULES: Sequence[Rule] = (UnusedSuppressionRule(),)
