"""``# repro-lint: disable=...`` suppression comments.

A violation is suppressed by putting the directive on the *reported* line::

    self.rngs.stream(f"warehouse.{name}")  # repro-lint: disable=R003

Multiple ids are comma-separated (``disable=R003,R004``); ``disable=all``
suppresses every rule on that line.  Comments are located with ``tokenize``
so directive-looking text inside string literals is never misparsed.
Malformed directives (unknown syntax after ``repro-lint:``) are reported as
R000 findings rather than silently ignored — a typo in a suppression must
not reopen a hole.

Suppressions are also *use-tracked*: a directive whose rule never fires on
that line is itself an R000 finding ("unused suppression").  Stale
suppressions are holes waiting to reopen — the rule they silence can start
firing again behind them without anyone noticing — so the count is only
allowed to go down.  Unused detection is scoped to the rules that actually
ran (``--select R003`` must not flag an R001 directive as unused).  A
directive naming no registered rule (``disable=R099``, or a retired id) is
an R000 finding on a full run.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.findings import Finding

_DIRECTIVE = re.compile(r"#\s*repro-lint\s*:\s*(?P<body>.*)$")
_DISABLE = re.compile(r"^disable\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)$")


@dataclass
class SuppressionTable:
    """Per-line sets of suppressed rule ids; ``{'all'}`` disables every rule."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    malformed: list[Finding] = field(default_factory=list)
    #: Directive location per line (col of the comment), for unused reports.
    directive_cols: dict[int, int] = field(default_factory=dict)
    #: ``(line, rule_id)`` pairs that actually suppressed a finding.
    used: set = field(default_factory=set)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        ids = self.by_line.get(line)
        if not ids or ("all" not in ids and rule_id not in ids):
            return False
        self.used.add((line, rule_id))
        return True

    def unused_findings(self, path: str, ran_rule_ids: set, full_run: bool) -> list[Finding]:
        """R000 findings for directives that silenced nothing.

        A specific id is unused when its rule ran on this pass and no finding
        on that line matched it.  On a full run (``full_run``) every
        registered rule ran, so an id that did not run names no rule at all
        (a typo, or a retired id) and is reported as unknown; ``disable=all``
        is judged only then too, since a partial ``--select`` pass cannot
        prove it idle.  These findings are unsuppressible by construction
        (they carry rule id R000 and R000 is never consulted against the
        table).
        """
        out: list[Finding] = []
        for line in sorted(self.by_line):
            used_here = {rid for (ln, rid) in self.used if ln == line}
            stale: list[str] = []
            unknown: list[str] = []
            for rule_id in sorted(self.by_line[line]):
                if rule_id == "all":
                    if full_run and not used_here:
                        stale.append("all")
                elif rule_id in ran_rule_ids:
                    if rule_id not in used_here:
                        stale.append(rule_id)
                elif full_run:
                    unknown.append(rule_id)
            messages = []
            if stale:
                messages.append(
                    f"unused suppression for {', '.join(stale)}: "
                    "no such finding on this line; remove the directive"
                )
            if unknown:
                messages.append(
                    f"unknown rule id {', '.join(unknown)} in suppression: "
                    "no such rule is registered; remove the directive"
                )
            out.extend(
                Finding(
                    file=path,
                    line=line,
                    col=self.directive_cols.get(line, 0),
                    rule_id="R000",
                    severity="error",
                    message=message,
                )
                for message in messages
            )
        return out


def scan_suppressions(source: str, path: str) -> SuppressionTable:
    """Collect suppression directives from every comment in ``source``."""
    table = SuppressionTable()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return table  # the parse error is reported by the engine
    for tok in comments:
        match = _DIRECTIVE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        body = match.group("body").strip()
        disable = _DISABLE.match(body)
        if disable is None:
            table.malformed.append(
                Finding(
                    file=path,
                    line=line,
                    col=tok.start[1],
                    rule_id="R000",
                    severity="error",
                    message=(
                        f"malformed repro-lint directive {body!r}; "
                        "expected '# repro-lint: disable=R0xx[,R0yy]' or 'disable=all'"
                    ),
                )
            )
            continue
        ids = {part.strip() for part in disable.group("ids").split(",") if part.strip()}
        table.by_line.setdefault(line, set()).update(ids)
        table.directive_cols.setdefault(line, tok.start[1])
    return table
