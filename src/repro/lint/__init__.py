"""repro.lint — AST-based determinism & invariant checker.

Machine-checks the conventions the reproduction's bit-reproducibility
rests on (named RNG streams, simulated time, no swallowed failures, unit
annotations at package boundaries) with per-file rules, and the
cross-module properties a single file cannot prove (layering, dataflow,
pickle-safety, exception contracts) with whole-program rules.  Both kinds
live in one registry and run over one parse.  See ``docs/INVARIANTS.md``
for the rule catalogue and the suppression syntax.

Programmatic use::

    from repro.lint import lint_paths, lint_source
    result = lint_paths(["src"])        # LintResult
    findings = lint_source(snippet)     # list[Finding]
"""

from repro.lint.context import FileContext
from repro.lint.engine import LintResult, lint_paths, lint_project, lint_source
from repro.lint.findings import SEVERITIES, Finding
from repro.lint.project import Project
from repro.lint.rules import Rule, all_rules, get_rules, register

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "SEVERITIES",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_project",
    "lint_source",
    "register",
]
