"""R017: only typed errors may be raised on the vendor surface.

Callers of the warehouse client (`warehouse/api.py` operation groups), the
fault injector, and the control loop catch the :class:`ReproError`
hierarchy from ``common/errors.py`` — that is the whole robustness story
of docs/ROBUSTNESS.md: a typed error is handled (degraded snapshot, retry,
breaker), an untyped one escapes to the top and kills the run.  So inside
the vendor-surface packages (``warehouse``, ``faults``, ``core``,
``costmodel``) every ``raise`` of a freshly constructed exception must
resolve — through the whole-program class hierarchy — to a class rooted in
the project's errors module.

The errors module is discovered, not hard-coded: any module named
``*.common.errors``.  That keeps the pass generic over fixture packages in
tests.  Re-raises (``raise``), raises of caught variables, and
``NotImplementedError`` (abstract-surface convention) are out of scope.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.rules import Rule, register

RULE_ID = "R017"

#: First-level subpackages forming the vendor surface.
SCOPED_PACKAGES = frozenset({"warehouse", "faults", "core", "costmodel"})
#: Builtin exceptions allowed anywhere (abstract-method convention).
ALLOWED_BUILTINS = frozenset({"NotImplementedError", "StopIteration", "StopAsyncIteration"})


def _errors_modules(project: Project) -> list[str]:
    return sorted(
        name for name in project.modules if name.endswith(".common.errors")
    )


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


@register
class ExceptionContractRule(Rule):
    """R017: the vendor surface raises typed errors only."""

    rule_id = RULE_ID
    name = "exception-contract"
    severity = "error"
    summary = (
        "the vendor surface (warehouse/faults/core/costmodel) raises only "
        "typed common.errors exceptions"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        return check_exception_contracts(project)


def check_exception_contracts(project: Project) -> list[Finding]:
    errors_modules = _errors_modules(project)
    if not errors_modules:
        return []
    error_classes = {
        qualname
        for qualname, cls in project.classes.items()
        if cls.module in errors_modules
    }
    findings: list[Finding] = []
    for errors_module in errors_modules:
        root_package = errors_module.rsplit(".common.errors", 1)[0]
        findings.extend(
            _check_package(project, root_package, error_classes)
        )
    findings.sort(key=Finding.sort_key)
    return findings


def _check_package(
    project: Project, root_package: str, error_classes: set
) -> list[Finding]:
    findings: list[Finding] = []
    prefix = root_package + "."
    for info in project.sorted_modules():
        if not info.name.startswith(prefix):
            continue
        first_level = info.name[len(prefix) :].split(".")[0]
        if first_level not in SCOPED_PACKAGES:
            continue
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if not isinstance(node.exc, ast.Call):
                continue  # re-raise of a variable: provenance unknowable here
            ctor = info.ctx.qualified(node.exc.func)
            if ctor is None:
                continue
            verdict = _classify(project, info.name, ctor, error_classes)
            if verdict is None:
                continue
            findings.append(
                Finding(
                    file=info.ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=RULE_ID,
                    severity="error",
                    message=(
                        f"raise of untyped {verdict} inside the vendor surface "
                        f"({first_level}); raise a {root_package}.common.errors "
                        "ReproError subclass so callers' typed handling applies"
                    ),
                )
            )
    return findings


def _classify(
    project: Project, module: str, ctor: str, error_classes: set
) -> str | None:
    """Name of the offending exception class, or None when the raise is fine
    (typed, unresolvable, or an allowed builtin)."""
    tail = ctor.split(".")[-1]
    info = project.resolve_class(module, ctor)
    if info is None:
        if "." not in ctor and _is_builtin_exception(ctor):
            return None if ctor in ALLOWED_BUILTINS else ctor
        return None  # not a class we can resolve: no proof, no finding
    # BFS up the (whole-program) class hierarchy looking for an errors-module
    # ancestor.
    seen: set = set()
    queue = [info]
    while queue:
        current = queue.pop(0)
        if current.qualname in error_classes:
            return None
        if current.qualname in seen:
            continue
        seen.add(current.qualname)
        for base in current.bases:
            base_info = project.resolve_class(current.module, base)
            if base_info is not None:
                queue.append(base_info)
    return tail
