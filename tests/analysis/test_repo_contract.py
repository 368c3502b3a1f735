"""The CI acceptance gate: the repo's own source is analysis-clean, and the
specific debts this PR paid down stay paid (remove a fix and the matching
rule fires again — see tests/analysis fixtures for the per-rule proofs)."""

import pathlib

from repro.analysis.engine import analyze_paths
from repro.analysis.project import Project

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def render(result):
    lines = [f.render() for f in result.findings]
    return "\n".join(lines + list(result.stale) + list(result.errors))


class TestSelfClean:
    def test_src_is_analysis_clean(self):
        result = analyze_paths([REPO_ROOT / "src"])
        assert result.clean, f"new analysis violations under src/:\n{render(result)}"
        # Guard against a vacuous pass from a discovery regression.
        assert result.modules >= 100

    def test_shipped_baseline_is_empty(self):
        # The committed baseline must never accumulate blessed debt: fix
        # findings, don't bless them (docs/ANALYSIS.md).
        import json

        payload = json.loads(
            (REPO_ROOT / "analysis-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["entries"] == []


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
