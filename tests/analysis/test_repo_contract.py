"""The whole-program rules hold on the repo's own source, and the specific
debts they paid down stay paid (remove a fix and the matching rule fires
again — see tests/analysis fixtures for the per-rule proofs).  The gate
that runs every rule over all shipped code lives in
tests/lint/test_self_clean.py."""

import pathlib

from repro.lint import Rule, all_rules, lint_project
from repro.lint.project import Project

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# The rules with a project-level pass (R012, R016, R017).
WHOLE_PROGRAM = [cls.rule_id for cls in all_rules() if cls.check_project is not Rule.check_project]


def render(result):
    return "\n".join([f.render() for f in result.findings] + list(result.errors))


class TestSelfClean:
    def test_src_is_analysis_clean(self):
        project = Project.load([REPO_ROOT / "src"])
        result = lint_project(project, select=WHOLE_PROGRAM)
        assert result.clean, f"new analysis violations under src/:\n{render(result)}"
        # Guard against a vacuous pass from a discovery regression.
        assert len(project.modules) >= 100
        assert WHOLE_PROGRAM == ["R012", "R016", "R017"]


class TestActionsLayeringFix:
    """PR regression: the action vocabulary moved core -> learning to break
    the learning/core import cycle (R012)."""

    def test_learning_has_no_import_time_core_edge(self):
        project = Project.load([REPO_ROOT / "src" / "repro" / "learning"])
        offenders = [
            (info.name, edge.target, edge.line)
            for info in project.sorted_modules()
            for edge in info.edges
            if edge.target.startswith("repro.core")
            and not edge.lazy
            and not edge.typing_only
        ]
        assert not offenders, offenders
