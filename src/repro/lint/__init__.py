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

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.lint.context": ("FileContext",),
        "repro.lint.engine": ("LintResult", "lint_paths", "lint_project", "lint_source"),
        "repro.lint.findings": ("SEVERITIES", "Finding"),
        "repro.lint.project": ("Project",),
        "repro.lint.rules": ("Rule", "all_rules", "get_rules", "register"),
    },
)
