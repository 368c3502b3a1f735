"""SARIF 2.1.0 rendering of lint findings for code-scanning UIs.

Byte stability is a hard contract — two runs over an unchanged tree must
produce identical bytes, which is what lets CI diff the artifacts.
"""

from __future__ import annotations

from typing import IO, Sequence

from repro.common.stable_json import dump_json
from repro.lint.findings import Finding
from repro.lint.rules import iter_rule_docs

#: SARIF spec version emitted by :func:`findings_to_sarif`.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Map repro severities onto SARIF result levels.
_SARIF_LEVEL = {"warning": "warning", "error": "error"}


def findings_to_sarif(findings: Sequence[Finding], errors: Sequence[str] = ()) -> dict:
    """Render findings as a SARIF 2.1.0 log (one run, one tool).

    Every registered rule gets a ``rules`` catalogue entry; R000 has none
    (SARIF consumers resolve results by ``ruleId`` alone, so it still
    renders).  File-level errors (unparseable files) become
    ``toolExecutionNotifications`` so they are not silently dropped.
    """
    rules = [
        {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": _SARIF_LEVEL.get(severity, "warning")},
        }
        for rule_id, name, severity, summary in iter_rule_docs()
    ]
    results = [
        {
            "ruleId": f.rule_id,
            "level": _SARIF_LEVEL.get(f.severity, "warning"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.file},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,  # SARIF columns are 1-based
                        },
                    }
                }
            ],
        }
        for f in sorted(findings, key=Finding.sort_key)
    ]
    notifications = [
        {"level": "error", "message": {"text": error}} for error in sorted(errors)
    ]
    run: dict = {
        "tool": {
            "driver": {
                "name": "repro-lint",
                "informationUri": "docs/INVARIANTS.md",
                "rules": rules,
            }
        },
        "results": results,
    }
    if notifications:
        run["invocations"] = [
            {
                "executionSuccessful": False,
                "toolExecutionNotifications": notifications,
            }
        ]
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}


def render_sarif(findings: Sequence[Finding], errors: Sequence[str], out: IO[str]) -> None:
    """Serialize findings as byte-stable SARIF onto ``out``."""
    dump_json(findings_to_sarif(findings, errors), out)
