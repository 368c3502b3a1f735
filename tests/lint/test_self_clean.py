"""The CI gate: the repo itself must stay lint-clean.

The linter's value is the frozen clean state — every determinism invariant
in docs/INVARIANTS.md, per-file and whole-program, is machine-checked here
on every test run.  Every rule runs once over ``src/``, ``benchmarks/`` and
``examples/`` as one project (the same run CI gates on); the tests below
judge their own slice of it.  If a test fails, either fix the violation or
add a *justified* ``# repro-lint: disable=Rxxx`` suppression (see
docs/INVARIANTS.md).
"""

import functools
import pathlib
import re

import pytest

from repro.lint import Project, Rule, all_rules, lint_paths, lint_project, register
from repro.lint.rules import RETIRED

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BENCHMARKS_AND_EXAMPLES = [REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]


def render(result):
    return "\n".join(f.render() for f in result.findings) + "\n" + "\n".join(result.errors)


@functools.lru_cache(maxsize=None)
def shipped_run():
    """One full run of every rule over the shipped code: (project, result)."""
    project = Project.load([SRC, *BENCHMARKS_AND_EXAMPLES])
    return project, lint_project(project)


def under(roots, path):
    return any(path.startswith(root.as_posix() + "/") for root in roots)


def slice_of(roots):
    """(files scanned, findings, errors) of the shipped run under ``roots``."""
    project, result = shipped_run()
    files = [ctx for ctx in project.files if under(roots, ctx.path)]
    findings = [f.render() for f in result.findings if under(roots, f.file)]
    errors = [e for e in result.errors if under(roots, e)]
    return files, findings, errors


class TestSelfClean:
    def test_src_is_lint_clean(self):
        files, findings, errors = slice_of([SRC])
        assert not findings and not errors, (
            "new lint violations under src/:\n" + "\n".join(findings + errors)
        )
        # The whole library really was scanned (guards against a silent
        # file-discovery regression making this gate vacuous).
        assert len(files) >= 70

    def test_benchmarks_and_examples_are_lint_clean(self):
        files, findings, errors = slice_of(BENCHMARKS_AND_EXAMPLES)
        assert not findings and not errors, (
            "new lint violations:\n" + "\n".join(findings + errors)
        )
        assert len(files) >= 15

    def test_shipped_run_is_clean_and_complete(self):
        # Nothing falls outside the two slices above, and the whole-program
        # rules saw the full module graph.
        project, result = shipped_run()
        assert result.clean, f"new lint violations:\n{render(result)}"
        assert result.files_scanned >= 120
        assert len(project.modules) >= 100

    def test_exit_code_contract(self):
        assert lint_paths([SRC]).exit_code() == 0

    def test_tests_and_benchmarks_pass_hygiene_rules(self):
        # tests/ and benchmarks/ are exempt from the simulation-purity rules
        # (they may seed ad-hoc RNGs, compare exact times, etc.) but not from
        # the hygiene rules: shared mutable defaults, swallowed exceptions,
        # set- and listing-order iteration, unbounded retries.
        result = lint_paths(
            [REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            select=["R005", "R006", "R008", "R010"],
        )
        assert result.clean, f"hygiene violations in tests/benchmarks:\n{render(result)}"
        assert result.files_scanned >= 100


class TestCatalogueDocumented:
    """docs/INVARIANTS.md documents exactly the registered rules, and no
    doc names a retired id except as retired."""

    DOCS = sorted(
        [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md", *(REPO_ROOT / "docs").glob("*.md")]
    )
    ID_OR_RANGE = re.compile(r"R(\d{3})(?:\s*[–-]\s*R(\d{3}))?")

    def test_headings_match_the_registry(self):
        text = (REPO_ROOT / "docs" / "INVARIANTS.md").read_text(encoding="utf-8")
        headings = re.findall(r"^### (R\d{3}) ", text, flags=re.MULTILINE)
        assert headings == [cls.rule_id for cls in all_rules()]

    def test_retired_ids_are_never_reused(self):
        class Reuse(Rule):
            rule_id = "R014"

        with pytest.raises(ValueError, match="retired"):
            register(Reuse)
        assert RETIRED.isdisjoint(cls.rule_id for cls in all_rules())

    def test_no_doc_names_a_retired_id_as_live(self):
        assert len(self.DOCS) >= 5
        offenders = []
        for doc in self.DOCS:
            for number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
                named = set()
                for first, last in self.ID_OR_RANGE.findall(line):
                    stop = int(last or first)
                    named.update(f"R{n:03d}" for n in range(int(first), stop + 1))
                if named & RETIRED and "retired" not in line.lower():
                    offenders.append(f"{doc.relative_to(REPO_ROOT)}:{number}: {line.strip()}")
        assert not offenders, "retired rule ids named as live:\n" + "\n".join(offenders)
