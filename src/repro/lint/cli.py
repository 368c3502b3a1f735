"""Command-line front-end for the repro-lint invariant checker.

Invocations (all equivalent)::

    python -m repro.lint src/
    python -m repro.cli lint src/
    repro-lint src/                  # console script

Exit codes: 0 clean, 1 findings, 2 unparseable files or bad usage.
The ``--format=json`` schema is versioned and documented in
``docs/INVARIANTS.md``.  ``--graph PATH`` additionally writes the
first-level import graph (Graphviz DOT, or markdown when the path ends in
``.md``) from the same parse.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from repro.common.cli import flag, run_command
from repro.common.stable_json import dump_json
from repro.lint.contract import REPRO_CONTRACT
from repro.lint.engine import LintResult, lint_project
from repro.lint.findings import SEVERITIES
from repro.lint.graph import to_dot, to_markdown
from repro.lint.output import render_sarif
from repro.lint.project import Project
from repro.lint.rules import iter_rule_docs

#: Bumped whenever the JSON output shape changes incompatibly.
JSON_SCHEMA_VERSION = 1


#: repro-lint's arguments (shared with the ``repro.cli lint`` row).
FLAGS = (
    flag(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    ),
    flag(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="output format (default: human)",
    ),
    flag(
        "--select", metavar="R001,R002,...", default=None,
        help="comma-separated rule ids to run (default: all)",
    ),
    flag(
        "--min-severity", choices=SEVERITIES, default="warning",
        help="drop findings below this severity (default: warning, i.e. keep all)",
    ),
    flag(
        "--graph", metavar="PATH", default=None,
        help="write the import-graph artifact (.md for markdown, else DOT)",
    ),
    flag("--list-rules", action="store_true", help="print the rule catalogue and exit"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism & invariant linter for the repro codebase "
        "(per-file rules plus whole-program layering, dataflow, pickle-safety "
        "and exception-contract rules).",
    )
    for names, kwargs in FLAGS:
        parser.add_argument(*names, **kwargs)
    parser.set_defaults(run=run)
    return parser


def render_human(result: LintResult, out: IO[str]) -> None:
    for finding in result.findings:
        print(finding.render(), file=out)
    for error in result.errors:
        print(f"error: {error}", file=out)
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_scanned} file(s)"
        + (f", {result.suppressed} suppressed" if result.suppressed else "")
        + (f", {len(result.errors)} file error(s)" if result.errors else "")
    )
    print(summary, file=out)


def render_json(result: LintResult, out: IO[str]) -> None:
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "findings": [f.to_dict() for f in result.findings],
        "errors": list(result.errors),
        "exit_code": result.exit_code(),
    }
    dump_json(payload, out)


def write_graph(project: Project, graph_path: str) -> None:
    if graph_path.endswith(".md"):
        text = to_markdown(project, REPRO_CONTRACT.package)
    else:
        text = to_dot(project, REPRO_CONTRACT.package, REPRO_CONTRACT.layers)
    with open(graph_path, "w", encoding="utf-8") as handle:
        handle.write(text)


def run(args: argparse.Namespace, out: IO[str]) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule_id, name, severity, summary in iter_rule_docs():
            print(f"{rule_id}  {name:<32} [{severity}] {summary}", file=out)
        return 0
    select = [s.strip() for s in args.select.split(",")] if args.select else None
    project = Project.load(args.paths)
    try:
        result = lint_project(project, select=select, min_severity=args.min_severity)
    except KeyError as exc:  # an unknown --select id is unusable input
        raise ValueError(exc.args[0]) from exc
    if args.graph:
        write_graph(project, args.graph)
    if args.format == "json":
        render_json(result, out)
    elif args.format == "sarif":
        render_sarif(result.findings, result.errors, out)
    else:
        render_human(result, out)
    return result.exit_code()


def main(argv: list[str] | None = None) -> int:
    return run_command(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
