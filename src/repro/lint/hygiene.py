"""Hygiene rules: failure-masking and interface-drift hazards.

These are not determinism bugs per se, but they are how determinism bugs
*hide*: a swallowed exception in the actuator's self-correction path turns
a hard failure into silent drift, a mutable default argument is shared
state across calls, and un-annotated public interfaces let unit confusion
(credits vs seconds vs dollars) creep across module boundaries.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register


@register
class MutableDefaultRule(Rule):
    """R005: no mutable default arguments.

    A ``def f(xs=[])`` default is created once and shared by every call —
    cross-run state that survives between scenario replays in one process.
    """

    rule_id = "R005"
    name = "no-mutable-defaults"
    severity = "error"
    summary = "mutable default arguments ([], {}, set(), list(), ...) are shared across calls; default to None"

    _MUTABLE_CALLS = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.OrderedDict",
            "collections.deque",
            "collections.Counter",
        }
    )

    def _is_mutable(self, ctx: FileContext, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.qualified(node.func) in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(ctx, default):
                    label = getattr(node, "name", "<lambda>")
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default argument in {label!r} is evaluated "
                        "once and shared by all calls; use None and "
                        "construct inside the body",
                    )


@register
class SilentExceptRule(Rule):
    """R006: a blanket handler must not hide a failure.

    The monitoring/actuator self-correction loop (§4.4) must *observe*
    failures to back off; ``except: pass`` converts a failed actuation into
    silent divergence between the believed and actual warehouse config, and
    a log-and-carry-on ``except Exception`` hides the typed errors
    (TelemetryError, WarehouseTimeoutError, ...) consumers key off.  A bare
    ``except:`` is flagged, and so is an ``except Exception``/
    ``BaseException`` whose body never re-raises.
    """

    rule_id = "R006"
    name = "no-silent-except"
    severity = "error"
    summary = (
        "bare `except:` and blanket `except Exception` handlers that never "
        "re-raise hide failures the self-correction loop must observe; catch "
        "specific errors or re-raise"
    )

    _BLANKET = ("Exception", "BaseException")

    def _is_blanket(self, ctx: FileContext, node: ast.expr) -> bool:
        if isinstance(node, ast.Tuple):
            return any(self._is_blanket(ctx, elt) for elt in node.elts)
        return ctx.qualified(node) in self._BLANKET

    @staticmethod
    def _reraises(body: list[ast.stmt]) -> bool:
        """Does the handler body raise, outside any nested def or class?"""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Raise):
                return True
            nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            if not isinstance(node, nested):
                stack.extend(ast.iter_child_nodes(node))
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare `except:` catches everything including "
                    "KeyboardInterrupt; name the exception types",
                )
            elif self._is_blanket(ctx, node.type) and not self._reraises(node.body):
                yield ctx.finding(
                    self,
                    node,
                    "`except Exception` that never re-raises swallows "
                    "failures, typed ones too (TelemetryError, "
                    "WarehouseTimeoutError, ...); catch the specific errors "
                    "or re-raise",
                )


@register
class BoundedRetriesRule(Rule):
    """R010: retry loops must be bounded.

    The robustness layer (docs/ROBUSTNESS.md) handles vendor flakiness with
    *bounded* retries, a circuit breaker, and typed errors.  A ``while
    True:`` with no ``break``/``return`` defeats it: an unbounded retry (or
    plain infinite) loop turns a persistent vendor outage into a hang.
    Blanket handlers that hide a failure are R006's.
    """

    rule_id = "R010"
    name = "bounded-retries"
    severity = "error"
    summary = (
        "retry loops must be bounded (no escape-less `while True:`); use "
        "RetryPolicy/CircuitBreaker and typed errors instead"
    )

    @classmethod
    def _has_escape(cls, stmts: list[ast.stmt], in_nested_loop: bool) -> bool:
        """Can control leave the loop via ``break`` (bound here) or ``return``?"""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # separate scope: its returns/breaks don't exit us
            if isinstance(stmt, ast.Return):
                return True
            if isinstance(stmt, ast.Break) and not in_nested_loop:
                return True
            if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                if cls._has_escape(stmt.body + stmt.orelse, True):
                    return True
            elif isinstance(stmt, ast.Try):
                blocks = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    blocks = blocks + handler.body
                if cls._has_escape(blocks, in_nested_loop):
                    return True
            elif isinstance(stmt, ast.If):
                if cls._has_escape(stmt.body + stmt.orelse, in_nested_loop):
                    return True
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                if cls._has_escape(stmt.body, in_nested_loop):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            infinite = isinstance(test, ast.Constant) and bool(test.value)
            if infinite and not self._has_escape(node.body, False):
                yield ctx.finding(
                    self,
                    node,
                    "`while True:` with no break/return is an unbounded "
                    "retry loop; bound the attempts (see "
                    "repro.core.actuator.RetryPolicy) or add an escape",
                )


@register
class NoPrintInLibraryRule(Rule):
    """R009: no ``print()`` in library code.

    Library modules report through return values and the observability layer
    (``repro.obs``); writing to stdout from deep inside a simulation bypasses
    both, interleaves nondeterministically with CLI output, and cannot be
    asserted on in tests.  The CLI front-ends (``cli.py``, ``__main__.py``)
    and the linter's own reporting are the sanctioned places to print.
    """

    rule_id = "R009"
    name = "no-print-in-library"
    severity = "error"
    summary = (
        "library modules must not call print(); report via return values or "
        "repro.obs — only cli.py/__main__.py and repro/lint may print"
    )

    def _applies(self, path: str) -> bool:
        if "repro/" not in path or "repro/lint/" in path:
            return False
        return pathlib.PurePosixPath(path).name not in ("cli.py", "__main__.py")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._applies(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self,
                    node,
                    "print() in library code writes to stdout behind the "
                    "CLI's back; return the value or emit it through "
                    "repro.obs instead",
                )


@register
class ProcessPoolConfinementRule(Rule):
    """R011: process parallelism lives only in ``repro/parallel/``.

    Spawning processes anywhere else breaks the determinism story that
    makes ``workers=N`` safe: ``repro.parallel`` is the one place that
    ships scenarios as :class:`ScenarioSpec` recipes, isolates observation
    sessions per job, and merges payloads in submission order
    (docs/PERFORMANCE.md).  An ad-hoc ``multiprocessing.Pool`` elsewhere
    would fork live simulation state and record into the parent's session
    from several processes at once.
    """

    rule_id = "R011"
    name = "process-pool-confinement"
    severity = "error"
    summary = (
        "multiprocessing / concurrent.futures imports are confined to "
        "repro/parallel — route parallel work through repro.parallel.run_jobs"
    )

    _FORBIDDEN = ("multiprocessing", "concurrent")

    def _applies(self, path: str) -> bool:
        return "repro/" in path and "repro/parallel/" not in path

    @classmethod
    def _forbidden(cls, module: str | None) -> bool:
        if not module:
            return False
        top = module.split(".", 1)[0]
        return top in cls._FORBIDDEN

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._applies(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if self._forbidden(a.name)]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] if self._forbidden(node.module) else []
            else:
                continue
            for name in names:
                yield ctx.finding(
                    self,
                    node,
                    f"import of {name!r} outside repro/parallel: spawn "
                    "worker processes through repro.parallel.run_jobs so "
                    "results stay byte-identical to a serial run",
                )


@register
class PublicAnnotationsRule(Rule):
    """R007: complete type annotations on public functions in the unit-critical
    packages (``core/``, ``costmodel/``, ``warehouse/``).

    These packages pass credits, seconds, and dollars across module
    boundaries; annotations are the only machine-checked record of which
    unit a float is.
    """

    rule_id = "R007"
    name = "public-annotations"
    severity = "error"
    summary = (
        "public functions in repro/core, repro/costmodel, repro/warehouse "
        "must annotate every parameter and the return type"
    )

    SCOPES = ("repro/core/", "repro/costmodel/", "repro/warehouse/")

    def _applies(self, path: str) -> bool:
        return any(scope in path for scope in self.SCOPES)

    @staticmethod
    def _public_functions(
        tree: ast.Module,
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
        """Top-level functions and methods of top-level classes, with an
        is-method flag.  Nested helpers are private by construction."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item, True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._applies(ctx.path):
            return
        for func, is_method in self._public_functions(ctx.tree):
            name = func.name
            if name.startswith("_") and name != "__init__":
                continue  # private helpers and non-init dunders
            missing: list[str] = []
            params = [*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs]
            if is_method and params and params[0].arg in ("self", "cls"):
                params = params[1:]
            for param in params:
                if param.annotation is None:
                    missing.append(param.arg)
            if func.returns is None and name != "__init__":
                missing.append("return")
            if missing:
                yield ctx.finding(
                    self,
                    func,
                    f"public function {name!r} is missing annotations for: "
                    f"{', '.join(missing)} (units must be explicit at "
                    "package boundaries)",
                )
