"""The lint CLI on whole-program rules: exit codes, byte-stable JSON/SARIF,
graph artifacts, and the entry points."""

import io
import json
import pathlib
import subprocess
import sys

from repro.common.cli import run_command
from repro.lint.cli import JSON_SCHEMA_VERSION, build_parser
from repro.lint.output import SARIF_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

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


def run_cli(argv):
    out = io.StringIO()
    code = run_command(build_parser().parse_args(argv), out)
    return code, out.getvalue()


def write_fixture(tmp_path, source=CLOSURE, name="mod.py"):
    target = tmp_path / name
    target.write_text(source)
    return target


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        target = write_fixture(tmp_path, "x = 1\n")
        code, _ = run_cli([str(target)])
        assert code == 0

    def test_findings_exit_one(self, tmp_path):
        target = write_fixture(tmp_path)
        code, out = run_cli([str(target)])
        assert code == 1 and "R016" in out

    def test_nonexistent_path_exits_two(self, tmp_path):
        code, out = run_cli([str(tmp_path / "nope")])
        assert code == 2 and "no such file" in out

    def test_unknown_rule_id_exits_two(self, tmp_path):
        target = write_fixture(tmp_path, "x = 1\n")
        code, _ = run_cli([str(target), "--select", "R999"])
        assert code == 2

    def test_list_rules_covers_the_catalogue(self):
        code, out = run_cli(["--list-rules"])
        assert code == 0
        # One registry: every live rule id listed exactly once, in order;
        # retired ids stay unused.
        ids = [line.split()[0] for line in out.splitlines()]
        assert ids == [f"R{n:03d}" for n in range(1, 21) if n not in (13, 14, 15)]


class TestJsonOutput:
    def test_schema_fields(self, tmp_path):
        target = write_fixture(tmp_path)
        code, out = run_cli([str(target), "--format", "json"])
        payload = json.loads(out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["exit_code"] == code == 1
        assert payload["files_scanned"] == 1
        assert {f["rule_id"] for f in payload["findings"]} == {"R016"}

    def test_two_runs_byte_identical(self, tmp_path):
        target = write_fixture(tmp_path)
        _, first = run_cli([str(target), "--format", "json"])
        _, second = run_cli([str(target), "--format", "json"])
        assert first == second


class TestSarifOutput:
    def test_two_runs_byte_identical(self, tmp_path):
        target = write_fixture(tmp_path)
        _, first = run_cli([str(target), "--format", "sarif"])
        _, second = run_cli([str(target), "--format", "sarif"])
        assert first == second

    def test_sarif_shape(self, tmp_path):
        target = write_fixture(tmp_path)
        _, out = run_cli([str(target), "--format", "sarif"])
        sarif = json.loads(out)
        assert sarif["version"] == SARIF_VERSION
        (sarif_run,) = sarif["runs"]
        driver = sarif_run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == [f"R{n:03d}" for n in range(1, 21) if n not in (13, 14, 15)]
        results = sarif_run["results"]
        assert results and all(r["ruleId"] == "R016" for r in results)
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == target.as_posix()


class TestGraphArtifact:
    def test_dot_artifact(self, tmp_path):
        target = write_fixture(tmp_path, "x = 1\n")
        graph = tmp_path / "imports.dot"
        code, _ = run_cli([str(target), "--graph", str(graph)])
        assert code == 0
        assert graph.read_text().startswith('digraph "repro" {')

    def test_markdown_artifact(self, tmp_path):
        graph = tmp_path / "imports.md"
        code, _ = run_cli(
            [str(REPO_ROOT / "src"), "--graph", str(graph)]
        )
        assert code == 0
        text = graph.read_text()
        assert text.startswith("# Import graph: `repro`")
        assert "| `core` |" in text


class TestEntryPoints:
    def test_python_dash_m_repro_lint_runs_whole_program_rules(self, tmp_path):
        target = write_fixture(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "R016" in proc.stdout

    def test_repro_cli_lint_graph_option(self, tmp_path):
        from repro.cli import main

        target = write_fixture(tmp_path, "x = 1\n")
        graph = tmp_path / "imports.dot"
        assert main(["lint", str(target), "--graph", str(graph)]) == 0
        assert graph.read_text().startswith('digraph "repro" {')
