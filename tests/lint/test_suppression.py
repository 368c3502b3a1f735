"""The ``# repro-lint: disable=...`` suppression mechanism."""

import textwrap

from repro.lint import lint_paths, lint_source
from repro.lint.context import FileContext
from repro.lint.engine import lint_project
from repro.lint.project import Project


def lint(source: str, path: str = "snippet.py"):
    return lint_source(textwrap.dedent(source), path=path)


class TestSuppression:
    def test_same_line_directive_suppresses(self):
        assert (
            lint(
                """\
                import time
                t = time.time()  # repro-lint: disable=R001
                """
            )
            == []
        )

    def test_directive_only_covers_its_rule(self):
        found = lint(
            """\
            import time
            t = time.time()  # repro-lint: disable=R002
            """
        )
        # The R001 violation still fires, and the R002 directive (which
        # silenced nothing) is itself reported as an unused suppression.
        assert [f.rule_id for f in found] == ["R001", "R000"]
        assert "unused suppression" in found[1].message

    def test_multiple_ids_in_one_directive(self):
        found = lint(
            """\
            def f(rngs, start_time, end_time):
                return rngs.stream(start_time), start_time == end_time  # repro-lint: disable=R003,R004
            """
        )
        assert found == []

    def test_disable_all(self):
        assert (
            lint(
                """\
                import time
                t = time.time()  # repro-lint: disable=all
                """
            )
            == []
        )

    def test_directive_on_other_line_does_not_suppress(self):
        found = lint(
            """\
            import time
            # repro-lint: disable=R001
            t = time.time()
            """
        )
        # The misplaced directive suppresses nothing (R001 fires on line 3)
        # and is flagged as unused on its own line.
        assert [f.rule_id for f in found] == ["R000", "R001"]
        assert found[0].line == 2 and "unused suppression" in found[0].message

    def test_directive_inside_string_is_inert(self):
        found = lint(
            """\
            import time
            doc = "# repro-lint: disable=R001"
            t = time.time()
            """
        )
        assert [f.rule_id for f in found] == ["R001"]

    def test_malformed_directive_reported_as_r000(self):
        found = lint("x = 1  # repro-lint: disable R001\n")
        assert [f.rule_id for f in found] == ["R000"]
        assert "malformed" in found[0].message

    def test_suppressed_count_reported(self):
        source = "import time\nt = time.time()  # repro-lint: disable=R001\n"
        ctx = FileContext.from_source(source, "snippet.py")
        result = lint_project(Project.from_context(ctx))
        assert result.findings == []
        assert result.suppressed == 1


class TestUnusedSuppressions:
    def test_used_directive_is_not_flagged(self):
        assert lint("import time\nt = time.time()  # repro-lint: disable=R001\n") == []

    def test_unused_specific_id_is_flagged(self):
        found = lint("x = 1  # repro-lint: disable=R005\n")
        assert [f.rule_id for f in found] == ["R000"]
        assert "unused suppression for R005" in found[0].message

    def test_unused_disable_all_is_flagged_on_full_run(self):
        found = lint("x = 1  # repro-lint: disable=all\n")
        assert [f.rule_id for f in found] == ["R000"]
        assert "unused suppression for all" in found[0].message

    def test_unused_check_scoped_to_selected_rules(self):
        # Under --select R002 an idle R001 directive cannot be judged: R001
        # never ran, so the pass must not call it unused.
        source = "import time\nt = time.time()  # repro-lint: disable=R001\n"
        assert lint_source(source, path="snippet.py", select=["R002"]) == []

    def test_disable_all_not_judged_on_partial_run(self):
        source = "x = 1  # repro-lint: disable=all\n"
        assert lint_source(source, path="snippet.py", select=["R002"]) == []

    def test_partially_unused_directive_reports_only_stale_ids(self):
        found = lint("import time\nt = time.time()  # repro-lint: disable=R001,R005\n")
        assert [f.rule_id for f in found] == ["R000"]
        assert "unused suppression for R005" in found[0].message
        assert "R001" not in found[0].message

    def test_disable_all_used_only_by_a_whole_program_rule(self, tmp_path):
        # Line 5 is flagged by R016 (a registrant that is a closure) alone.
        # Per-file and whole-program rules share one suppression pass, so
        # disable=all there counts as used.
        target = tmp_path / "mod.py"
        target.write_text(
            "from framework.scenarios import scenario_factory\n"
            "\n"
            "def outer():\n"
            '    @scenario_factory("inner")\n'
            "    def make(spec):  # repro-lint: disable=all\n"
            "        return spec\n"
            "    return make\n"
        )
        result = lint_paths([target])
        assert result.findings == [] and result.exit_code() == 0
        assert result.suppressed == 1


class TestUnknownRuleIds:
    def test_unregistered_id_is_flagged_on_full_run(self):
        found = lint("x = 1  # repro-lint: disable=R099\n")
        assert [(f.rule_id, f.line) for f in found] == [("R000", 1)]
        assert "unknown rule id R099" in found[0].message
        # A retired id names no rule either.
        found = lint("import time\nt = time.time()  # repro-lint: disable=R001,R014\n")
        assert [f.rule_id for f in found] == ["R000"]
        assert "unknown rule id R014" in found[0].message

    def test_unknown_and_unused_ids_reported_apart(self):
        found = lint("x = 1  # repro-lint: disable=R005,R099\n")
        messages = sorted(f.message for f in found)
        assert [f.rule_id for f in found] == ["R000", "R000"]
        assert messages[0].startswith("unknown rule id R099")
        assert messages[1].startswith("unused suppression for R005")

    def test_unknown_id_not_judged_on_partial_run(self):
        # A --select pass did not run the whole catalogue, so it leaves
        # directives for rules it did not run alone.
        source = "x = 1  # repro-lint: disable=R099\n"
        assert lint_source(source, path="snippet.py", select=["R002"]) == []
