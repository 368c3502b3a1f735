"""R016: spawn-safety of scenario factories and worker-job payloads.

``repro.parallel`` ships work to spawn-context processes as
:class:`~repro.experiments.scenarios.ScenarioSpec` recipes, which the
worker rebuilds by looking the factory up in ``SCENARIO_FACTORIES`` /
``_PROTOCOLS``.  That round-trip only works when everything registered is
importable by name from a fresh interpreter: a module-level ``def``.  A
closure, a ``lambda``, or an ad-hoc registry poke would pickle (or fail to
pickle) parent-process state and silently break the byte-identity
guarantee of ``workers=N`` (docs/PERFORMANCE.md).

This pass proves the property statically across the whole project:

* every function decorated with ``@scenario_factory(...)`` or
  ``@register_protocol(...)`` is a module-level ``def`` — not nested, not
  a lambda, and with no lambda default arguments;
* registries are not bypassed with direct subscript assignment
  (``SCENARIO_FACTORIES[...] = ...``) outside their defining module;
* no ``WorkerJob(...)`` construction smuggles a lambda anywhere inside its
  arguments.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.rules import Rule, register

RULE_ID = "R016"

#: Decorator names whose registrants must be spawn-safe.
REGISTRARS = frozenset({"scenario_factory", "register_protocol"})
#: Registry dicts that must only be written through their registrars.
REGISTRIES = frozenset({"SCENARIO_FACTORIES", "_PROTOCOLS"})
#: Payload constructors whose arguments cross a process boundary.
PAYLOAD_TYPES = frozenset({"WorkerJob"})


@register
class PickleSafetyRule(Rule):
    """R016: registrants and worker payloads are spawn-safe."""

    rule_id = RULE_ID
    name = "pickle-safety"
    severity = "error"
    summary = (
        "scenario factories, protocols, and WorkerJob payloads are spawn-safe "
        "(no closures, lambdas, or registry bypasses)"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        return check_pickle_safety(project)


def check_pickle_safety(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for info in project.sorted_modules():
        ctx = info.ctx
        _walk(ctx, ctx.tree.body, depth=0, findings=findings, module=info.name)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                _check_payload_call(ctx, node, findings)
                _check_inline_registration(ctx, node, findings)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                _check_registry_poke(ctx, node, findings, module=info.name)
    findings.sort(key=Finding.sort_key)
    return findings


def _registrar_name(ctx, decorator: ast.expr) -> str | None:
    """The registrar name when ``decorator`` is ``@scenario_factory(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    qualified = ctx.qualified(target)
    if qualified is None:
        return None
    tail = qualified.split(".")[-1]
    return tail if tail in REGISTRARS else None


def _walk(ctx, body, depth: int, findings: list[Finding], module: str) -> None:
    """Find decorated defs at every nesting depth; flag the nested ones."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                registrar = _registrar_name(ctx, decorator)
                if registrar is None:
                    continue
                if depth > 0:
                    findings.append(
                        _finding(
                            ctx,
                            node,
                            f"@{registrar} registrant {node.name!r} is a nested "
                            "function (closure); spawn workers cannot import it "
                            "by name — move it to module level",
                        )
                    )
                lambda_defaults = [
                    d
                    for d in list(node.args.defaults) + list(node.args.kw_defaults)
                    if isinstance(d, ast.Lambda)
                ]
                for default in lambda_defaults:
                    findings.append(
                        _finding(
                            ctx,
                            default,
                            f"@{registrar} registrant {node.name!r} has a lambda "
                            "default argument; lambdas cannot be pickled to "
                            "spawn workers — use a module-level function",
                        )
                    )
            _walk(ctx, node.body, depth + 1, findings, module)
        elif isinstance(node, ast.ClassDef):
            _walk(ctx, node.body, depth + 1, findings, module)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.stmt):
                    _walk(ctx, [sub], depth, findings, module)


def _check_inline_registration(ctx, node: ast.Call, findings: list[Finding]) -> None:
    """``scenario_factory("x")(lambda ...)`` — direct lambda registration."""
    if not isinstance(node.func, ast.Call):
        return
    registrar = _registrar_name(ctx, node.func)
    if registrar is None:
        return
    for arg in node.args:
        if isinstance(arg, ast.Lambda):
            findings.append(
                _finding(
                    ctx,
                    arg,
                    f"lambda registered via {registrar}(...); lambdas cannot be "
                    "pickled to spawn workers — register a module-level def",
                )
            )


def _check_payload_call(ctx, node: ast.Call, findings: list[Finding]) -> None:
    target = node.func
    qualified = ctx.qualified(target)
    if qualified is None or qualified.split(".")[-1] not in PAYLOAD_TYPES:
        return
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Lambda):
                findings.append(
                    _finding(
                        ctx,
                        sub,
                        "lambda inside a WorkerJob payload; job payloads are "
                        "pickled to spawn workers and lambdas cannot be — pass "
                        "a module-level function or a data value",
                    )
                )


def _check_registry_poke(ctx, node, findings: list[Finding], module: str) -> None:
    """Direct subscript writes into the factory registries."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        if not isinstance(target, ast.Subscript):
            continue
        qualified = ctx.qualified(target.value)
        if qualified is None:
            continue
        name = qualified.split(".")[-1]
        if name not in REGISTRIES:
            continue
        # A bare (undotted) name means the registry is local to this module —
        # that is the registrar implementation itself, the one sanctioned
        # writer.  A dotted name is an imported registry being poked from
        # outside: a bypass.
        if "." not in qualified:
            continue
        findings.append(
            _finding(
                ctx,
                node,
                f"direct write into registry {name}; register through the "
                "decorator so spawn workers can rebuild the entry by name",
            )
        )


def _finding(ctx, node: ast.AST, message: str) -> Finding:
    return Finding(
        file=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule_id=RULE_ID,
        severity="error",
        message=message,
    )
