"""Plain-text rendering of portal dashboards (terminal-friendly).

Benchmarks and examples print these to show the same views the paper's
Figures 2, 4 and 6 screenshot; no plotting dependency is available offline.
"""

from __future__ import annotations

from repro.obs.provenance import calibration_facts, event_outcome
from repro.portal.dashboards import (
    ActionsDashboard,
    OverheadDashboard,
    SavingsDashboard,
)

_BAR_WIDTH = 40


def _bar(value: float, maximum: float, fill: str) -> str:
    if maximum <= 0:
        return ""
    n = int(round(_BAR_WIDTH * value / maximum))
    return fill * max(0, min(n, _BAR_WIDTH))


def render_savings(dashboard: SavingsDashboard) -> str:
    """Figure-4-style daily bars: '#' pre-Keebo, '=' with Keebo."""
    lines = [
        f"Daily credit usage — warehouse {dashboard.warehouse}",
        f"{'day':>4} {'credits':>9} {'p99 (s)':>8}  usage",
    ]
    peak = max(dashboard.daily_credits, default=0.0)
    for day, credits, p99, active in zip(
        dashboard.days, dashboard.daily_credits, dashboard.daily_p99, dashboard.keebo_active
    ):
        fill = "=" if active else "#"
        tag = "keebo" if active else "pre"
        lines.append(
            f"{day:>4} {credits:>9.2f} {p99:>8.2f}  {_bar(credits, peak, fill):<40} {tag}"
        )
    lines.append(
        f"mean/day: pre={dashboard.pre_keebo_daily_mean:.2f} "
        f"with-keebo={dashboard.with_keebo_daily_mean:.2f} "
        f"savings={dashboard.savings_fraction:.1%}"
    )
    return "\n".join(lines)


def render_overhead(dashboard: OverheadDashboard) -> str:
    """Figure-6-style hourly table: actual vs overhead vs estimated savings."""
    lines = [
        f"Hourly usage — warehouse {dashboard.warehouse}",
        f"{'hour':>5} {'actual':>9} {'overhead':>9} {'est.savings':>12} {'total(no keebo)':>16}",
    ]
    for h, actual, overhead, savings in zip(
        dashboard.hours,
        dashboard.actual_credits,
        dashboard.overhead_credits,
        dashboard.estimated_savings,
    ):
        lines.append(
            f"{h:>5} {actual:>9.3f} {overhead:>9.4f} {savings:>12.3f} {actual + savings:>16.3f}"
        )
    lines.append(f"overhead / actual usage: {dashboard.total_overhead_fraction:.4%}")
    return "\n".join(lines)


def render_run_report(
    records: list[dict],
    profile,
    critical: list[dict],
    slo_report=None,
    top: int = 15,
) -> str:
    """Markdown per-run report assembled from a trace's records.

    Sections: run manifest, savings over sim time (from
    ``optimizer.savings_report`` events), the alert fire/resolve timeline,
    decision provenance and what-if calibration (from the
    ``provenance.*`` events), SLO evaluation (when a series sidecar was
    available) and the span profile with its critical path.  Pure function
    of its inputs, so same-seed runs render byte-identical reports.

    ``profile``/``critical`` come from :mod:`repro.obs.profile`;
    ``slo_report`` is a :class:`repro.obs.slo.SLOReport` or ``None``.
    """
    lines: list[str] = []
    manifests = [r for r in records if r.get("type") == "manifest"]
    title = "run"
    if manifests:
        m = manifests[0]
        title = f"`{m.get('scenario', '?')}` (seed {m.get('seed', '?')})"
    lines += [f"# Run report — {title}", ""]
    for m in manifests:
        lines += [
            f"- scenario: `{m.get('scenario')}`  seed: `{m.get('seed')}`  "
            f"slider: `{m.get('slider')}`",
            f"- config hash: `{m.get('config_hash')}`  version: "
            f"`{m.get('version')}`  trace schema: `{m.get('schema')}`",
        ]
    n_spans = sum(1 for r in records if r.get("type") == "span")
    n_events = sum(1 for r in records if r.get("type") == "event")
    lines += [f"- records: {len(records)} ({n_spans} spans, {n_events} events)", ""]

    savings = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == "optimizer.savings_report"
    ]
    lines += ["## Savings over time", ""]
    if savings:
        lines += ["| sim time | warehouse | savings |", "| --- | --- | --- |"]
        for event in savings:
            attrs = event.get("attrs", {})
            lines.append(
                f"| {event['time']:.0f}s | {attrs.get('warehouse', '?')} "
                f"| {attrs.get('savings_fraction', 0.0):+.1%} |"
            )
    else:
        lines.append("_No savings reports in this trace._")
    lines.append("")

    alert_rows = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") in ("alert.fire", "alert.resolve")
    ]
    lines += ["## Alert timeline", ""]
    if alert_rows:
        lines += [
            "| sim time | state | severity | alert | detail |",
            "| --- | --- | --- | --- | --- |",
        ]
        for row in alert_rows:
            attrs = row.get("attrs", {})
            state = "fire" if row["name"] == "alert.fire" else "resolve"
            if state == "resolve":
                detail = f"after {attrs.get('duration', 0.0):.0f}s"
                if attrs.get("refires"):
                    detail += f", {attrs['refires']} re-fires"
            else:
                detail = str(attrs.get("reason", ""))
            lines.append(
                f"| {row['time']:.0f}s | {state} | {attrs.get('severity', '?')} "
                f"| `{attrs.get('alert', '?')}` | {detail} |"
            )
    else:
        lines.append("_No alerts fired during this run._")
    lines.append("")

    lines += _provenance_section(records)
    lines += _live_ledger_section(records)

    if slo_report is not None:
        lines += ["## SLOs", ""]
        if slo_report.results:
            lines += [
                "| SLO | objective | buckets | bad | compliance | status |",
                "| --- | --- | --- | --- | --- | --- |",
            ]
            for result in sorted(slo_report.results, key=lambda r: r.spec.name):
                spec = result.spec
                status = "ok" if result.ok else f"{len(result.violations)} violation(s)"
                lines.append(
                    f"| `{spec.name}` | {spec.aggregate}(`{spec.metric}`) "
                    f"{spec.op} {spec.threshold:g} | {result.buckets_evaluated} "
                    f"| {result.bad_buckets} | {result.compliance:.1%} | {status} |"
                )
            violations = slo_report.violations
            if violations:
                lines += [
                    "",
                    "| violation | fired | resolved | peak burn |",
                    "| --- | --- | --- | --- |",
                ]
                for v in violations:
                    resolved = (
                        f"{v.resolved_at:.0f}s" if v.resolved_at is not None else "open"
                    )
                    lines.append(
                        f"| `{v.slo}` | {v.fired_at:.0f}s | {resolved} "
                        f"| {v.peak_burn:.0%} |"
                    )
        else:
            lines.append("_No SLO had a recorded series to evaluate._")
        lines.append("")

    lines += [f"## Span profile (top {top} by total sim-time)", ""]
    if profile.spans:
        lines += [
            "| span | count | total s | self s | min s | max s |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for stats in profile.top(top):
            lines.append(
                f"| `{stats.name}` | {stats.count} | {stats.total_time:.3f} "
                f"| {stats.self_time:.3f} | {stats.min_time:.3f} "
                f"| {stats.max_time:.3f} |"
            )
        if critical:
            chain = " → ".join(f"`{row['name']}`" for row in critical)
            lines += ["", f"Critical path: {chain}"]
    else:
        lines.append("_No spans in this trace._")
    lines.append("")
    return "\n".join(lines)


def _provenance_section(records: list[dict]) -> list[str]:
    """The decision-provenance block of the run report (schema v3)."""
    decisions = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == "provenance.decision"
    ]
    outcomes = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == "provenance.outcome"
    ]
    lines = ["## Decision provenance & calibration", ""]
    if not decisions:
        lines += ["_No provenance events in this trace._", ""]
        return lines
    by_code: dict[str, int] = {}
    for row in decisions:
        code = str(row.get("attrs", {}).get("reason_code", "") or "?")
        by_code[code] = by_code.get(code, 0) + 1
    lines += [
        f"- decisions: {len(decisions)} ({len(outcomes)} sealed with a "
        f"realized outcome)",
        "",
        "| reason code | count |",
        "| --- | --- |",
    ]
    for code in sorted(by_code, key=lambda c: (-by_code[c], c)):
        lines.append(f"| `{code}` | {by_code[code]} |")
    calibration = calibration_facts(
        event_outcome(r.get("attrs", {})) for r in outcomes
    )
    n = calibration["n_with_prediction"]
    if n:
        lines += [
            "",
            f"What-if calibration over {n} predicted intervals: "
            f"mean |error| {calibration['mean_abs_error_credits']:.4f} credits, "
            f"mean signed error {calibration['mean_error_credits']:+.4f} credits "
            f"(positive = realized cost more than predicted).",
        ]
    lines.append("")
    return lines


def _live_ledger_section(records: list[dict]) -> list[str]:
    """Streamed-vs-full reconciliations (``ledger.live_reconcile`` events).

    Rendered when the trace closed at least one report period: an aligned
    reconciliation with non-zero divergence is flagged loudly — it means
    the live ledger's replay of its streamed rows stopped being
    bit-identical to the savings estimate, an invariant break rather than
    estimation noise.
    """
    rows = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == "ledger.live_reconcile"
    ]
    if not rows:
        return []
    lines = [
        "## Live ledger reconciliations",
        "",
        "| sim time | warehouse | rows | projected | estimated | divergence |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    broken = 0
    for row in rows:
        attrs = row.get("attrs", {})
        divergence = float(attrs.get("divergence", 0.0))
        aligned = bool(attrs.get("aligned", False))
        if aligned and divergence != 0.0:
            broken += 1
        note = f"{divergence:g}" if aligned else "(unaligned period)"
        lines.append(
            f"| {row['time']:.0f}s | {attrs.get('warehouse', '?')} "
            f"| {attrs.get('rows_streamed', 0)} "
            f"| {attrs.get('projected_credits', 0.0):.4f} "
            f"| {attrs.get('estimated_credits', 0.0):.4f} | {note} |"
        )
    if broken:
        lines += [
            "",
            f"**{broken} aligned reconciliation(s) diverged from the full "
            "replay — the live ledger invariant is broken.**",
        ]
    else:
        lines += [
            "",
            "Every aligned reconciliation matched the full replay bit for bit.",
        ]
    lines.append("")
    return lines


def render_actions(dashboard: ActionsDashboard, limit: int = 20) -> str:
    """The real-time action log view."""
    lines = [f"Actions on {dashboard.warehouse} ({dashboard.n_changes} changes)"]
    shown = [a for a in dashboard.actions if a.changed][-limit:]
    for a in shown:
        lines.append(
            f"  t={a.time:>10.0f}s  {a.from_config.describe()}  ->  "
            f"{a.to_config.describe()}  [{a.reason}]"
        )
    if not shown:
        lines.append("  (no configuration changes)")
    return "\n".join(lines)


def render_watchtower(report: dict) -> str:
    """Markdown rendering of a fleet watchtower report (obs.watchtower).

    Same information as the text rendering, shaped for the portal: a
    verdict line, a per-warehouse fact table, and one findings table.  A
    pure function of the report dict, so same-store reports render to
    identical bytes (CI archives this next to the JSON report).
    """
    store = report["store"]
    verdict = "OK" if report["ok"] else "REGRESSION"
    baseline = (
        "no baseline (absolute checks only)"
        if report["baseline_runs"] is None
        else f"baseline over {report['baseline_runs']} run(s)"
    )
    lines = [
        "# Fleet watchtower",
        "",
        f"**Verdict: {verdict}** — {len(store['runs'])} run(s), "
        f"{len(store['warehouses'])} warehouse(s), {store['rows']} store rows; "
        f"{baseline}.",
        "",
        "## Warehouses",
        "",
        "| warehouse | attributed (cr) | decisions | sealed | mean \\|err\\| (cr) |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, facts in report["current"]["warehouses"].items():
        lines.append(
            f"| {name} | {facts['attributed_credits']:+.6f} "
            f"| {facts['n_decisions']} | {facts['n_sealed']} "
            f"| {facts['mean_abs_error_credits']:.5f} |"
        )
    lines += ["", "## Findings", ""]
    if report["findings"]:
        lines += [
            "| severity | kind | subject | detail |",
            "|---|---|---|---|",
        ]
        for finding in report["findings"]:
            lines.append(
                f"| {finding['severity']} | {finding['kind']} "
                f"| {finding['subject']} | {finding['message']} |"
            )
    else:
        lines.append("No findings: the fleet is where the baseline says it should be.")
    lines.append("")
    return "\n".join(lines)


def render_recovery(report: dict) -> str:
    """Markdown rendering of a crash-recovery report (durability smoke).

    A pure function of the report dict
    (:meth:`repro.experiments.crash.RecoveryRunResult.report`), so
    same-run reports render to identical bytes — CI archives this next
    to the JSON report.
    """
    verdict = "OK" if report["ok"] else "FAILED"
    lines = [
        "# Crash recovery",
        "",
        f"**Verdict: {verdict}** — scenario `{report['scenario']}` "
        f"(seed {report['seed']}), fault `{report['kind']}` at checkpoint "
        f"boundary {report['crash_boundary']} "
        f"(cadence {report['cadence_seconds']:g} s).",
        "",
        f"- crashes: {report['crashes']}",
        f"- recovered: {report['recovered']}",
        f"- journal repairs: {report['repairs']}",
        f"- `service.restore` events: {report['restore_events']}",
    ]
    if report["recovery_error"]:
        lines.append(f"- refusal: `{report['recovery_error']}`")
    lines += ["", "## Exports vs the uninterrupted run", ""]
    if report["recovered"]:
        lines += ["| export | byte-identical |", "|---|---|"]
        for name, same in report["identical"].items():
            lines.append(f"| {name} | {'yes' if same else 'DIVERGED'} |")
    else:
        lines.append(
            "_No exports were produced by the crashed twin: restore refused "
            "the damaged artifacts (the expected outcome for detection "
            "fault kinds)._"
        )
    return "\n".join(lines) + "\n"
