"""CLI surface: exit codes, JSON stability, rule selection, repro.cli wiring."""

import io
import json
import pathlib
import subprocess
import sys

from repro.common.cli import run_command
from repro.lint.cli import JSON_SCHEMA_VERSION, build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

DIRTY = "import time\nt = time.time()\n"


def run_cli(argv, cwd=None):
    out = io.StringIO()
    code = run_command(build_parser().parse_args(argv), out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        code, _ = run_cli([str(target)])
        assert code == 0

    def test_findings_exit_one(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(DIRTY)
        code, out = run_cli([str(target)])
        assert code == 1
        assert "R001" in out

    def test_unparseable_file_exits_two(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        code, out = run_cli([str(target)])
        assert code == 2
        assert "broken.py" in out

    def test_unknown_rule_id_exits_two(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        code, _ = run_cli([str(target), "--select", "R999"])
        assert code == 2

    def test_nonexistent_path_exits_two(self, tmp_path):
        # A typo'd path must not be a vacuous clean pass (CI would lie).
        code, out = run_cli([str(tmp_path / "nope")])
        assert code == 2
        assert "no such file" in out


class TestHumanOutput:
    def test_findings_carry_file_line_rule(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(DIRTY)
        _, out = run_cli([str(target)])
        assert f"{target.as_posix()}:2:" in out
        assert "[error]" in out

    def test_list_rules_covers_all_eight(self):
        code, out = run_cli(["--list-rules"])
        assert code == 0
        for rid in ("R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008"):
            assert rid in out


class TestJsonOutput:
    def test_schema_and_ordering_stable(self, tmp_path):
        # Two violations in two files: output must be sorted by path/line.
        (tmp_path / "b.py").write_text(DIRTY)
        (tmp_path / "a.py").write_text("import random\n")
        code, out = run_cli([str(tmp_path), "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_scanned"] == 2
        assert payload["exit_code"] == 1
        files = [f["file"] for f in payload["findings"]]
        assert files == sorted(files)
        assert set(payload["findings"][0]) == {
            "file",
            "line",
            "col",
            "rule_id",
            "severity",
            "message",
        }

    def test_json_roundtrips_byte_identical(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(DIRTY)
        _, first = run_cli([str(target), "--format", "json"])
        _, second = run_cli([str(target), "--format", "json"])
        assert first == second


class TestSarifOutput:
    def test_two_runs_byte_identical(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(DIRTY)
        _, first = run_cli([str(target), "--format", "sarif"])
        _, second = run_cli([str(target), "--format", "sarif"])
        assert first == second

    def test_sarif_shape(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(DIRTY)
        code, out = run_cli([str(target), "--format", "sarif"])
        assert code == 1
        sarif = json.loads(out)
        assert sarif["version"] == "2.1.0"
        (sarif_run,) = sarif["runs"]
        driver = sarif_run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert any(rule["id"] == "R001" for rule in driver["rules"])
        results = sarif_run["results"]
        assert any(r["ruleId"] == "R001" for r in results)
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        # SARIF columns are 1-based; Finding.col is 0-based.
        assert region["startLine"] == 2 and region["startColumn"] >= 1

    def test_file_errors_surface_as_notifications(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        code, out = run_cli([str(target), "--format", "sarif"])
        assert code == 2
        sarif = json.loads(out)
        notes = sarif["runs"][0]["invocations"][0]["toolExecutionNotifications"]
        assert notes and "broken.py" in notes[0]["message"]["text"]


class TestSelection:
    def test_select_restricts_rules(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import random\nimport time\nt = time.time()\n")
        _, out = run_cli([str(target), "--select", "R002"])
        assert "R002" in out and "R001" not in out

    def test_min_severity_drops_warnings(self, tmp_path):
        target = tmp_path / "warn.py"
        target.write_text("def f(start_time, end_time):\n    return start_time == end_time\n")
        code, _ = run_cli([str(target), "--min-severity", "error"])
        assert code == 0
        code, _ = run_cli([str(target)])
        assert code == 1


class TestEntryPoints:
    def test_python_dash_m_repro_lint(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(DIRTY)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "R001" in proc.stdout

    def test_repro_cli_lint_subcommand(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0
