"""Lint engine: one parse, every selected rule, one suppression pass.

The engine is pure: :func:`lint_project` returns a :class:`LintResult`;
rendering and exit codes live in ``repro.lint.cli``.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import SEVERITIES, Finding
from repro.lint.project import Project
from repro.lint.rules import Rule, get_rules
from repro.lint.suppressions import scan_suppressions


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # unparseable files etc.
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def lint_project(
    project: Project,
    select: Iterable[str] | None = None,
    min_severity: str = "warning",
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Run the selected rules over a parsed project.

    Per-file rules see every file, whole-program rules see the project
    once.  Then one suppression pass filters every finding and reports
    malformed and *unused* directives as R000 findings, which cannot be
    suppressed.  A directive is judged against every rule that ran;
    ``disable=all`` is judged only when the complete catalogue ran.
    """
    rule_objs = list(rules) if rules is not None else get_rules(select)
    full_run = select is None and rules is None
    # One import statement can carry several aliases of the same module;
    # identical whole-program findings collapse (Finding is frozen).  Dedup
    # keeps first-seen order, so findings tied on sort_key stay in rule order.
    whole: dict[str, list[Finding]] = {}
    found = dict.fromkeys(f for rule in rule_objs for f in rule.check_project(project))
    for finding in sorted(found, key=Finding.sort_key):
        whole.setdefault(finding.file, []).append(finding)

    ran = {rule.rule_id for rule in rule_objs}
    result = LintResult(errors=list(project.errors), files_scanned=project.files_scanned)
    for ctx in project.files:
        table = scan_suppressions(ctx.source, ctx.path)
        result.findings.extend(table.malformed)
        per_file = [f for rule in rule_objs for f in rule.check(ctx)]
        for finding in per_file + whole.get(ctx.path, []):
            if table.is_suppressed(finding.line, finding.rule_id):
                result.suppressed += 1
            else:
                result.findings.append(finding)
        result.findings.extend(table.unused_findings(ctx.path, ran, full_run))
    threshold = SEVERITIES.index(min_severity)
    result.findings = [f for f in result.findings if SEVERITIES.index(f.severity) >= threshold]
    result.findings.sort(key=Finding.sort_key)
    return result


def lint_source(
    source: str,
    path: str = "<snippet>",
    select: Iterable[str] | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint a source string as a one-file project (the unit-test entry point).

    ``path`` participates in path-scoped rules (R002's rng.py exemption,
    R007's package scopes), so fixtures can opt in by naming themselves
    accordingly.
    """
    project = Project.from_context(FileContext.from_source(source, path))
    return lint_project(project, select=select, rules=rules).findings


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    select: Iterable[str] | None = None,
    min_severity: str = "warning",
) -> LintResult:
    """Lint every ``.py`` file under ``paths``."""
    return lint_project(Project.load(paths), select=select, min_severity=min_severity)
