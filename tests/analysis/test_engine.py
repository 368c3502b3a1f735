"""The unified lint engine on whole-program rules: rule selection,
suppressions, result plumbing."""

import pytest

from repro.lint import Project, Rule, all_rules, lint_paths, lint_project

# R016 flags the registrant on line 5: a closure cannot be imported by name.
CLOSURE = (
    "from framework.scenarios import scenario_factory\n"
    "\n"
    "def outer():\n"
    '    @scenario_factory("inner")\n'
    "    def make(spec):\n"
    "        return spec\n"
    "    return make\n"
)


class TestSelection:
    def test_rule_ids_are_the_r012_r017_band(self):
        whole_program = [
            cls.rule_id for cls in all_rules() if cls.check_project is not Rule.check_project
        ]
        assert whole_program == ["R012", "R016", "R017"]

    def test_select_restricts_passes(self):
        project = Project.from_sources({"mod": CLOSURE})
        assert lint_project(project, select=["R017"]).findings == []
        assert {f.rule_id for f in lint_project(project, select=["R016"]).findings} == {
            "R016"
        }

    def test_unknown_rule_id_raises(self):
        project = Project.from_sources({"mod": "x = 1\n"})
        with pytest.raises(KeyError, match="R999"):
            lint_project(project, select=["R999"])

    def test_duplicate_findings_collapse(self):
        # One from-import with two aliases is one violation, not two.
        from repro.lint.contract import LayerContract, LayeringRule

        project = Project.from_sources(
            {"pkg.a": "from pkg.b import one, two\n", "pkg.b": "one = two = 1\n"}
        )
        contract = LayerContract(package="pkg", layers=(("a",), ("b",)))
        findings = lint_project(project, rules=[LayeringRule(contract)]).findings
        assert len(findings) == 1


class TestSuppressions:
    def write(self, tmp_path, source):
        target = tmp_path / "mod.py"
        target.write_text(source)
        return target

    def test_directive_silences_an_analysis_finding(self, tmp_path):
        target = self.write(
            tmp_path,
            CLOSURE.replace("def make(spec):", "def make(spec):  # repro-lint: disable=R016"),
        )
        result = lint_paths([target])
        assert result.clean and result.suppressed == 1

    def test_unused_analysis_directive_is_flagged(self, tmp_path):
        target = self.write(tmp_path, "x = 1  # repro-lint: disable=R016\n")
        result = lint_paths([target])
        (finding,) = result.findings
        assert finding.rule_id == "R000"
        assert "unused suppression for R016" in finding.message

    def test_per_file_rule_directive_is_judged_on_a_full_run(self, tmp_path):
        # Every rule runs in one pass, so an idle disable=R001 is stale.
        target = self.write(tmp_path, "x = 1  # repro-lint: disable=R001\n")
        (finding,) = lint_paths([target]).findings
        assert finding.rule_id == "R000"
        assert "unused suppression for R001" in finding.message

    def test_idle_disable_all_is_judged_on_a_full_run(self, tmp_path):
        target = self.write(tmp_path, "x = 1  # repro-lint: disable=all\n")
        (finding,) = lint_paths([target]).findings
        assert finding.rule_id == "R000"
        assert "unused suppression for all" in finding.message


class TestResultPlumbing:
    def test_exit_codes(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_paths([clean]).exit_code() == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text(CLOSURE)
        assert lint_paths([dirty]).exit_code() == 1
        assert lint_paths([tmp_path / "nope"]).exit_code() == 2

    def test_module_and_file_counts(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        project = Project.load([tmp_path])
        result = lint_project(project)
        assert result.files_scanned == 2 and len(project.modules) == 2
