"""Scheduler-specific static analysis (the REPxxx rules).

A small AST linter tuned to the failure modes that corrupt scheduling
reproductions silently: float drift crossing an exact comparison,
unseeded randomness breaking replay, hash-order nondeterminism feeding
an allocation decision, and swallowed exceptions hiding protocol
violations.  Generic style is left to ``ruff``; these rules encode
*domain* knowledge (see ``docs/analysis.md`` for the rule catalogue and
the paper invariants behind them).

Usage::

    python -m repro.analysis.lint src/            # human output, exit 1 on findings
    python -m repro.analysis.lint --json src/     # machine output
    python -m repro.analysis.lint --fix src/      # auto-wrap REP004 iterables

``--fix`` rewrites the *mechanical* REP004 findings in place: the flagged
set-typed iterable is wrapped in ``sorted(...)``, preserving all other
formatting.  Only REP004 carries a fix — the other rules require a
judgement call (tolerance choice, seeding strategy, handler design).

Per-line suppression, with the rule id spelled out so the waiver is
auditable::

    return bool(np.all(curve == 0.0))  # repro-lint: disable=REP001

Each rule is a :class:`LintRule` subclass registered in
:data:`ALL_RULES`; all active rules share one AST walk per file.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "Fix",
    "LintRule",
    "FloatEqualityRule",
    "NondeterminismRule",
    "MutableDefaultRule",
    "UnorderedIterationRule",
    "SilentExceptionRule",
    "UnorderedFloatSumRule",
    "PrintInLibraryRule",
    "UnseededRNGRule",
    "ALL_RULES",
    "apply_fixes",
    "fix_paths",
    "lint_source",
    "lint_paths",
    "main",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+|all)")

_DETERMINISTIC_PATHS = ("repro/core", "repro/sim", "repro/cluster", "repro/faults")
"""Replay-critical subtrees: the library half of REP002's scope."""

_TEST_PATHS = ("tests/",)
"""The test suite: also REP002 scope — a test drawing from an unseeded
stream or the wall clock is flaky by construction, and fixture noise
defeats the byte-parity assertions the suite exists for.  Intentional
nondeterminism in fixtures carries an inline waiver."""

_ENGINE_PATHS = _DETERMINISTIC_PATHS + ("repro/baselines",)
"""Engine/scheduler decision paths: REP005's scope."""


@dataclass(frozen=True, slots=True)
class Fix:
    """A mechanical repair: wrap one source span in ``sorted(...)``.

    The span is the flagged iterable *expression* (1-based line, 0-based
    column, exclusive end — exactly the AST's position attributes), so
    inserting ``sorted(`` before it and ``)`` after it is always valid
    Python and touches nothing else on the line.
    """

    line: int
    col: int
    end_line: int
    end_col: int


def _fix_span(node: ast.AST) -> Optional[Fix]:
    """The wrap-in-``sorted`` span for an iterable expression node."""
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    return Fix(
        line=node.lineno,
        col=node.col_offset,
        end_line=end_line,
        end_col=end_col,
    )


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    fix: Optional[Fix] = None
    """Attached when the violation has a formatting-preserving mechanical
    repair (currently only REP004's ``sorted(...)`` wrap)."""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "fixable": self.fix is not None,
        }


class LintRule:
    """Base class: one REPxxx rule.

    Subclasses override the ``visit_*`` hooks they care about; the
    shared :class:`_Walker` calls every active rule's hooks during a
    single AST traversal.  ``applies_to`` restricts a rule to path
    fragments (POSIX style); ``None`` means every linted file.
    """

    rule_id: str = "REP000"
    applies_to: Optional[tuple[str, ...]] = None

    def applies(self, path: str) -> bool:
        if self.applies_to is None:
            return True
        posix = path.replace("\\", "/")
        return any(fragment in posix for fragment in self.applies_to)

    def begin_module(self, tree: ast.Module, ctx: "_FileContext") -> None:
        """Per-file prepass (import aliases, scope analysis)."""

    def visit(self, node: ast.AST, ctx: "_FileContext") -> None:
        """Called for every node in the tree."""


class _FileContext:
    """Mutable per-file state shared by the rules during one walk."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.findings: list[Finding] = []
        self.suppressed = _parse_suppressions(source)

    def report(
        self,
        node: ast.AST,
        rule: LintRule,
        message: str,
        fix: Optional[Fix] = None,
    ) -> None:
        line = getattr(node, "lineno", 0)
        waived = self.suppressed.get(line)
        if waived is not None and ("all" in waived or rule.rule_id in waived):
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=rule.rule_id,
                message=message,
                fix=fix,
            )
        )


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids waived by a ``repro-lint`` comment."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
            out[lineno] = ids
    return out


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #

def _dotted_name(node: ast.AST) -> Optional[tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Local alias -> canonical dotted module/name path.

    Covers ``import numpy as np`` (np -> ("numpy",)), ``import time as
    _time``, and ``from time import time`` (time -> ("time", "time")).
    """
    aliases: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = tuple(
                    alias.name.split(".")
                ) if alias.asname else (alias.name.split(".")[0],)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            base = tuple(node.module.split("."))
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = base + (alias.name,)
    return aliases


def _canonical(node: ast.AST, aliases: dict[str, tuple[str, ...]]) -> Optional[tuple[str, ...]]:
    """Resolve a call target through the module's import aliases."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    head, rest = dotted[0], dotted[1:]
    return aliases.get(head, (head,)) + rest


def _is_float_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


# --------------------------------------------------------------------------- #
# REP001 — float equality on scheduler quantities
# --------------------------------------------------------------------------- #

class FloatEqualityRule(LintRule):
    """``==`` / ``!=`` against float literals or price/payoff-like names.

    Prices, payoffs, throughputs, and utilities are all products of float
    integration; exact comparison flips on the last bit and silently
    changes an admission decision.  Use :func:`math.isclose` or an
    explicit tolerance, or suppress with a justification.
    """

    rule_id = "REP001"

    _FLOATY = frozenset(
        {
            "price", "prices", "payoff", "payoffs", "throughput",
            "throughputs", "utility", "utilities", "cost", "costs", "jct",
        }
    )

    @classmethod
    def _is_floaty_name(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr.lower() in cls._FLOATY
        if isinstance(node, ast.Name):
            return node.id.lower() in cls._FLOATY
        return False

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(_is_float_constant(o) for o in (left, right)) or any(
                self._is_floaty_name(o) for o in (left, right)
            ):
                ctx.report(
                    node,
                    self,
                    "float equality comparison on a scheduler quantity; "
                    "use math.isclose / an explicit tolerance",
                )
                return


# --------------------------------------------------------------------------- #
# REP002 — nondeterminism in replay-critical paths
# --------------------------------------------------------------------------- #

class NondeterminismRule(LintRule):
    """Unseeded RNGs and wall-clock reads inside ``core``/``sim``/``cluster``.

    Replayability (bit-identical reruns, the property Gavel-style systems
    audit regressions with) requires every random draw to flow from a
    seeded generator (a ``numpy.random.Generator``, or a ``random.Random``
    built with its own seed) and every timestamp from simulated time or a
    monotonic measurement clock.  In the library's replay-
    critical paths (not the tests) the process environment is an input
    too: ``os.environ`` / ``os.getenv`` reads are flagged there, since a
    decision that reads them changes with the shell it runs in.
    """

    rule_id = "REP002"
    applies_to = _DETERMINISTIC_PATHS + _TEST_PATHS

    _NUMPY_LEGACY = frozenset(
        {
            "rand", "randn", "randint", "random", "random_sample", "choice",
            "shuffle", "permutation", "seed", "uniform", "normal",
            "exponential", "poisson",
        }
    )

    _ENVIRONMENT = frozenset({("os", "environ"), ("os", "getenv")})

    def begin_module(self, tree: ast.Module, ctx: _FileContext) -> None:
        self._aliases = _import_aliases(tree)
        posix = ctx.path.replace("\\", "/")
        self._env_scope = any(f in posix for f in _DETERMINISTIC_PATHS)

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if self._env_scope and isinstance(node, (ast.Attribute, ast.Name)):
            if _canonical(node, self._aliases) in self._ENVIRONMENT:
                ctx.report(
                    node,
                    self,
                    "process-environment read in a deterministic path; "
                    "take the value from config",
                )
            return
        if not isinstance(node, ast.Call):
            return
        target = _canonical(node.func, self._aliases)
        if target is None:
            return
        if target == ("time", "time"):
            ctx.report(
                node,
                self,
                "wall-clock time.time() in a deterministic path; use simulated "
                "time, or time.monotonic()/perf_counter() for measurements",
            )
        elif target == ("random", "Random"):
            # An instance with its own seed shares no state; unseeded,
            # it draws an OS-entropy stream.
            if UnseededRNGRule._unseeded(node):
                ctx.report(
                    node,
                    self,
                    "random.Random() without a seed is nondeterministic "
                    "across replays",
                )
        elif target[0] == "random" and len(target) == 2:
            ctx.report(
                node,
                self,
                f"stdlib random.{target[1]}() draws from shared global state; "
                "use a seeded numpy.random.Generator",
            )
        elif target == ("numpy", "random", "default_rng"):
            if not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                ctx.report(
                    node,
                    self,
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic across replays",
                )
        elif (
            len(target) == 3
            and target[:2] == ("numpy", "random")
            and target[2] in self._NUMPY_LEGACY
        ):
            ctx.report(
                node,
                self,
                f"legacy numpy.random.{target[2]}() uses hidden global state; "
                "use a seeded numpy.random.Generator",
            )


# --------------------------------------------------------------------------- #
# REP003 — mutable default arguments
# --------------------------------------------------------------------------- #

class MutableDefaultRule(LintRule):
    """``def f(x=[])`` — the default is shared across calls."""

    rule_id = "REP003"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "Counter"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name is not None and name[-1] in self._MUTABLE_CALLS
        return False

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        args = node.args
        for default in [*args.defaults, *[d for d in args.kw_defaults if d]]:
            if self._is_mutable(default):
                ctx.report(
                    default,
                    self,
                    "mutable default argument is shared across calls; "
                    "default to None (or a dataclass field factory)",
                )


# --------------------------------------------------------------------------- #
# REP004 — unordered set iteration feeding decisions
# --------------------------------------------------------------------------- #

def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function/module scope without descending into nested defs."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class UnorderedIterationRule(LintRule):
    """Iterating a set where the order can leak into an allocation.

    Set iteration order depends on insertion history and (for strings)
    ``PYTHONHASHSEED``; a tie broken by "whichever came out of the set
    first" makes two identical runs disagree on a placement.  Wrap the
    iterable in ``sorted(...)`` — or suppress with the argument for why
    order provably cannot matter.

    Detected per scope: iteration (``for``, comprehensions, ``min``/
    ``max`` with a ``key=``) over a set display/comprehension, a
    ``set()``/``frozenset()`` call, or a local name bound to one.
    Comprehensions feeding directly into order-insensitive reducers
    (``len``/``any``/``all``/``min``/``max`` without key, ``sorted``,
    ``set``/``frozenset``) are exempt.
    """

    rule_id = "REP004"

    _ORDER_FREE = frozenset(
        {"len", "any", "all", "min", "max", "sorted", "set", "frozenset"}
    )

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name is not None and name[-1] in {"set", "frozenset"}
        return False

    @staticmethod
    def _is_set_annotation(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        name = _dotted_name(node)
        return name is not None and name[-1] in {
            "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
        }

    @classmethod
    def _set_names(cls, scope: ast.AST) -> set[str]:
        """Local names bound to set-typed values inside one scope."""
        names: set[str] = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign) and cls._is_set_expr(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if (node.value is not None and cls._is_set_expr(node.value)) or (
                    cls._is_set_annotation(node.annotation)
                ):
                    names.add(node.target.id)
        return names

    def _flags(self, node: ast.AST, set_names: set[str]) -> bool:
        if self._is_set_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        set_names = self._set_names(node)

        exempt_comps: set[int] = set()
        for sub in _scope_nodes(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in self._ORDER_FREE
                and not any(kw.arg == "key" for kw in sub.keywords)
            ):
                for arg in sub.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        exempt_comps.add(id(arg))

        for sub in _scope_nodes(node):
            if isinstance(sub, ast.For) and self._flags(sub.iter, set_names):
                ctx.report(
                    sub,
                    self,
                    "for-loop over an unordered set; wrap in sorted(...) to "
                    "keep decisions replay-deterministic",
                    fix=_fix_span(sub.iter),
                )
            elif isinstance(
                sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ) and id(sub) not in exempt_comps:
                for gen in sub.generators:
                    if self._flags(gen.iter, set_names):
                        ctx.report(
                            sub,
                            self,
                            "comprehension over an unordered set; wrap in "
                            "sorted(...) to keep decisions replay-deterministic",
                            fix=_fix_span(gen.iter),
                        )
                        break
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in {"min", "max"}
                and any(kw.arg == "key" for kw in sub.keywords)
                and sub.args
                and self._flags(sub.args[0], set_names)
            ):
                ctx.report(
                    sub,
                    self,
                    f"{sub.func.id}(..., key=...) over an unordered set breaks "
                    "ties by hash order; sort the candidates first",
                    fix=_fix_span(sub.args[0]),
                )


# --------------------------------------------------------------------------- #
# REP005 — bare / swallowed exceptions in engine paths
# --------------------------------------------------------------------------- #

class SilentExceptionRule(LintRule):
    """``except:`` and ``except Exception: pass`` in scheduler/engine code.

    The engine's contract is to fail loudly on protocol violations
    (gang/capacity); a silent handler converts a scheduler bug into a
    corrupted experiment.
    """

    rule_id = "REP005"
    applies_to = _ENGINE_PATHS

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in handler.body
        )

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            ctx.report(
                node,
                self,
                "bare except catches SystemExit/KeyboardInterrupt and hides "
                "scheduler protocol errors; catch a specific exception",
            )
            return
        broad = _dotted_name(node.type)
        if broad is not None and broad[-1] in {"Exception", "BaseException"}:
            if self._swallows(node):
                ctx.report(
                    node,
                    self,
                    "broad exception handler silently swallows errors in an "
                    "engine path; re-raise, narrow, or log the failure",
                )


# --------------------------------------------------------------------------- #
# REP006 — float accumulation over unordered containers
# --------------------------------------------------------------------------- #

class UnorderedFloatSumRule(LintRule):
    """``sum()`` accumulating directly over an unordered container.

    Float addition is not associative: ``sum`` over a ``set`` or
    ``frozenset`` folds in hash/insertion order, so two replays of the
    same trace can disagree in the last ulp — enough to flip an admission
    threshold (REP001's failure mode, manufactured one step earlier).
    Sort the operands first (``sum(sorted(xs))``) or use ``math.fsum``,
    whose correctly-rounded result is order-independent by construction.

    Complements REP004, which covers explicit *iteration* (loops,
    comprehensions, keyed ``min``/``max``); a bare ``sum(prices)`` over a
    set-typed name iterates inside the builtin and slips REP004's net.
    Deliberately carries no ``--fix``: both repairs change the
    accumulated bits, and *which* order becomes canonical (sorted fold vs
    exact ``fsum``) is a judgement call per call site.
    """

    rule_id = "REP006"

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        set_names = UnorderedIterationRule._set_names(node)
        for sub in _scope_nodes(node):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "sum"
                and sub.args
            ):
                continue
            arg = sub.args[0]
            if UnorderedIterationRule._is_set_expr(arg) or (
                isinstance(arg, ast.Name) and arg.id in set_names
            ):
                ctx.report(
                    sub,
                    self,
                    "sum() over an unordered set accumulates floats in hash "
                    "order (non-associative); sort the operands — "
                    "sum(sorted(...)) — or use math.fsum",
                )


# --------------------------------------------------------------------------- #
# REP007 — print() in library code
# --------------------------------------------------------------------------- #

class PrintInLibraryRule(LintRule):
    """``print(...)`` in importable library code under ``src/repro``.

    Library output must flow through return values, the metrics registry,
    or the decision tracer — never stdout: a stray ``print`` in a hot
    path corrupts piped CLI output (``repro ... --json``), skews decision
    latency measurements, and cannot be disabled by callers.  Entry-point
    modules (``cli.py``, ``__main__.py``) are the designated rendering
    layer and are exempt by filename; anywhere else, route the message
    through :mod:`logging` or lift the rendering into the CLI — or
    suppress with the reason stdout is the contract (e.g. a console
    driver living outside the entry-point files).
    """

    rule_id = "REP007"
    applies_to = ("repro/",)

    _ENTRY_POINTS = frozenset({"cli.py", "__main__.py"})

    def applies(self, path: str) -> bool:
        if not super().applies(path):
            return False
        return path.replace("\\", "/").rsplit("/", 1)[-1] not in self._ENTRY_POINTS

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            ctx.report(
                node,
                self,
                "print() in library code writes to stdout unconditionally; "
                "return the data, use logging, or render in cli.py/__main__.py",
            )


# --------------------------------------------------------------------------- #
# REP008 — unseeded RNG construction in library code
# --------------------------------------------------------------------------- #

class UnseededRNGRule(LintRule):
    """Unseeded RNG construction anywhere under ``src/repro``.

    REP002 bans *every* global-state random call inside the
    replay-critical subtrees; this rule extends the narrower "no unseeded
    generator" slice of that contract to the rest of the library
    (workload synthesis, experiments, analysis helpers).  An
    ``np.random.default_rng()`` or ``random.Random()`` constructed
    without a seed gives a different stream per process, so the trace or
    experiment built from it cannot be regenerated — every generator
    must take its seed from config (cf. ``PhillyTraceConfig.seed``,
    ``FaultModel.seed``).  Scoped outside REP002's paths so a single
    call site is never double-flagged.
    """

    rule_id = "REP008"
    applies_to = ("repro/",)

    def applies(self, path: str) -> bool:
        if not super().applies(path):
            return False
        posix = path.replace("\\", "/")
        return not any(
            fragment in posix for fragment in NondeterminismRule.applies_to
        )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.keywords:
            return False
        return not node.args or (
            isinstance(node.args[0], ast.Constant) and node.args[0].value is None
        )

    def begin_module(self, tree: ast.Module, ctx: _FileContext) -> None:
        self._aliases = _import_aliases(tree)

    def visit(self, node: ast.AST, ctx: _FileContext) -> None:
        if not isinstance(node, ast.Call):
            return
        target = _canonical(node.func, self._aliases)
        if target is None:
            return
        if target == ("numpy", "random", "default_rng") and self._unseeded(node):
            ctx.report(
                node,
                self,
                "numpy.random.default_rng() without a seed cannot be "
                "regenerated; thread a seed from config",
            )
        elif target == ("random", "Random") and self._unseeded(node):
            ctx.report(
                node,
                self,
                "random.Random() without a seed draws an OS-entropy stream; "
                "thread a seed from config",
            )


ALL_RULES: tuple[type[LintRule], ...] = (
    FloatEqualityRule,
    NondeterminismRule,
    MutableDefaultRule,
    UnorderedIterationRule,
    SilentExceptionRule,
    UnorderedFloatSumRule,
    PrintInLibraryRule,
    UnseededRNGRule,
)


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #

def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[type[LintRule]]] = None,
) -> list[Finding]:
    """Lint one file's source; returns findings sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="REP000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = _FileContext(path, source)
    active = [
        cls() for cls in (rules if rules is not None else ALL_RULES)
        if cls().applies(path)
    ]
    for rule in active:
        rule.begin_module(tree, ctx)
    for node in ast.walk(tree):
        for rule in active:
            rule.visit(node, ctx)
    ctx.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return ctx.findings


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(
    paths: Iterable[str | Path],
    rules: Optional[Sequence[type[LintRule]]] = None,
) -> list[Finding]:
    """Lint every ``*.py`` under the given files/directories."""
    findings: list[Finding] = []
    for file in _iter_python_files(paths):
        findings.extend(
            lint_source(file.read_text(encoding="utf-8"), str(file), rules)
        )
    return findings


def apply_fixes(source: str, findings: Sequence[Finding]) -> tuple[str, int]:
    """Apply every attached :class:`Fix` to ``source``.

    Pure text surgery — ``sorted(`` / ``)`` are inserted at the recorded
    span boundaries, in reverse source order so earlier offsets stay
    valid; indentation, comments, and line breaks are untouched.  Returns
    ``(new_source, fixes_applied)``.
    """
    lines = source.splitlines(keepends=True)
    starts: list[int] = []
    offset = 0
    for text in lines:
        starts.append(offset)
        offset += len(text)

    inserts: list[tuple[int, int, str]] = []
    applied = 0
    for finding in findings:
        fix = finding.fix
        if fix is None:
            continue
        inserts.append((starts[fix.line - 1] + fix.col, 1, "sorted("))
        inserts.append((starts[fix.end_line - 1] + fix.end_col, 0, ")"))
        applied += 1
    # Reverse order keeps every pending offset stable; the priority field
    # opens nested same-offset spans outside-in.
    for pos, _, text in sorted(inserts, reverse=True):
        source = source[:pos] + text + source[pos:]
    return source, applied


def fix_paths(
    paths: Iterable[str | Path],
    rules: Optional[Sequence[type[LintRule]]] = None,
) -> tuple[int, int]:
    """Rewrite fixable findings in place; returns ``(fixes, files touched)``."""
    total = files = 0
    for file in _iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        fixed, applied = apply_fixes(source, lint_source(source, str(file), rules))
        if applied:
            file.write_text(fixed, encoding="utf-8")
            total += applied
            files += 1
    return total, files


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Scheduler-specific static analysis (REP001-REP008).",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--fix",
        action="store_true",
        help="rewrite mechanical REP004 findings in place (sorted(...) wrap)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such file or directory: {missing}")

    selected: Optional[list[type[LintRule]]] = None
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        selected = [cls for cls in ALL_RULES if cls.rule_id in wanted]
        unknown = wanted - {cls.rule_id for cls in selected}
        if unknown:
            parser.error(f"unknown rule ids: {sorted(unknown)}")

    if args.fix:
        fixed, files = fix_paths(args.paths, selected)
        if not args.json:
            # This module doubles as the linter's console entry point;
            # stdout IS its contract here.
            print(f"fixed {fixed} finding(s) in {files} file(s).")  # repro-lint: disable=REP007

    # With --fix, re-lint the rewritten tree: anything left needs a human.
    findings = lint_paths(args.paths, selected)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))  # repro-lint: disable=REP007
    else:
        for finding in findings:
            print(finding.format())  # repro-lint: disable=REP007
        if findings:
            print(f"\n{len(findings)} finding(s).")  # repro-lint: disable=REP007
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
