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

from repro.lint import Project, lint_paths, lint_project

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
        # hash-order iteration (per file and through dataflow), unbounded
        # retries.
        result = lint_paths(
            [REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            select=["R005", "R006", "R008", "R010", "R015"],
        )
        assert result.clean, f"hygiene violations in tests/benchmarks:\n{render(result)}"
        assert result.files_scanned >= 100
