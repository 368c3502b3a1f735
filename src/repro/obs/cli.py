"""Command-line tools over ``repro.obs`` trace files.

Invocations (via the main CLI)::

    python -m repro.cli obs smoke --out trace.jsonl       # run a tiny traced scenario
    python -m repro.cli obs summarize trace.jsonl         # inspect without pandas
    python -m repro.cli obs diff a.jsonl b.jsonl          # byte/structure compare
    python -m repro.cli obs profile trace.jsonl           # per-span-name stats
    python -m repro.cli obs slo trace.jsonl               # burn-rate SLO evaluation
    python -m repro.cli obs alerts trace.jsonl            # alert fire/resolve timeline
    python -m repro.cli obs report trace.jsonl            # per-run markdown report
    python -m repro.cli obs decisions trace.jsonl         # decision provenance timeline
    python -m repro.cli obs attribution trace.jsonl       # per-decision savings split
    python -m repro.cli obs store ingest|query|rollup|top # fleet telemetry store
    python -m repro.cli obs campaign --workers 2          # streamed fleet run + sidecars
    python -m repro.cli obs watch out.jsonl.stream        # live campaign progress table
    python -m repro.cli obs watchtower fleet_store.jsonl  # cross-run anomaly gate

Each subcommand is one row of :data:`COMMANDS` (repro.common.cli): its
``handler(args, out) -> int`` and the flags that handler reads.  Exit
codes follow the single table in docs/OBSERVABILITY.md §Exit codes, and
each handler's docstring names the check behind its exit 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections import Counter
from typing import IO

from repro.common.cli import flag, non_negative_int
from repro.common.errors import ObservabilityError
from repro.common.simtime import format_time
from repro.common.stable_json import canonical_json, dumps_json
from repro.obs import stream as obs_stream
from repro.obs import watchtower as obs_watchtower
from repro.obs.alerts import is_alert_event
from repro.obs.profile import critical_path, diff_profiles, profile_records, to_folded
from repro.obs.series import SeriesRegistry
from repro.obs.slo import DEFAULT_SPEND_BUDGET_PER_HOUR, default_slos, evaluate_all
from repro.obs.store import FleetStore
from repro.obs.trace import sidecar_path


#: The fields a trace record of each type must carry, with their types.
_RECORD_FIELDS = {
    "span": {"id": int, "name": str, "time": (int, float), "time_end": (int, float)},
    "event": {"time": (int, float)},
}


def _load(path: str) -> list[dict]:
    """Parse a JSONL trace; raises ValueError with a line number on garbage."""
    records = []
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i}: not JSON: {exc}") from exc
        if not isinstance(record, dict) or not isinstance(record.get("type"), str):
            raise ValueError(f"{path}:{i}: not a trace record (no 'type' key)")
        where = f"{path}:{i}: {record['type']} record"
        for key, kind in _RECORD_FIELDS.get(record["type"], {}).items():
            if not isinstance(record.get(key), kind):
                raise ValueError(f"{where} without a valid {key!r}")
        if not isinstance(record.get("attrs", {}), dict):
            raise ValueError(f"{where} with non-object 'attrs'")
        records.append(record)
    return records


def _rot_guard(n_spans: int) -> int:
    """Exit 1 for a trace with zero spans: CI's instrumentation-rot check."""
    if n_spans:
        return 0
    print("error: trace contains no spans (instrumentation rot?)", file=sys.stderr)
    return 1


def _counts_by_name(records: list[dict], record_type: str) -> dict[str, int]:
    return Counter(
        str(r.get("name", "<unnamed>")) for r in records if r["type"] == record_type
    )


def _render_counts(title: str, counts: dict[str, int], out: IO[str]) -> None:
    if not counts:
        return
    print(f"{title}:", file=out)
    # Heaviest first; name breaks ties so output is deterministic.
    for name in sorted(counts, key=lambda n: (-counts[n], n)):
        print(f"  {name:<36} {counts[name]:>8}", file=out)


def _summary_payload(path: str, records: list[dict]) -> dict:
    """The summarize view, shaped for ``dumps_json`` (``--format json``).

    Everything here is a pure function of the trace bytes plus sidecar
    *presence* (not sidecar content), so same-seed runs summarize to
    identical JSON.
    """
    spans = _counts_by_name(records, "span")
    events = _counts_by_name(records, "event")
    times = [r["time"] for r in records if "time" in r]
    return {
        "schema": 1,
        "manifests": [
            {
                k: m.get(k)
                for k in ("scenario", "seed", "config_hash", "slider", "version")
            }
            for m in records
            if m["type"] == "manifest"
        ],
        "n_records": len(records),
        "n_spans": sum(spans.values()),
        "n_events": sum(events.values()),
        "spans_by_name": spans,
        "events_by_name": events,
        "time_range": (
            {"min": min(times), "max": max(times)} if times else None
        ),
        "sidecars": {
            kind: sidecar_path(path, kind).is_file()
            for kind in ("metrics", "series", "campaign", "resources")
        },
    }


def summarize(args: argparse.Namespace, out: IO[str]) -> int:
    """Render the trace's shape; exit 1 when it contains no spans."""
    records = _load(args.trace)
    payload = _summary_payload(args.trace, records)
    if args.fmt == "json":
        out.write(dumps_json(payload))
        return _rot_guard(payload["n_spans"])
    for m in payload["manifests"]:
        print(
            "manifest: scenario={scenario} seed={seed} config={config_hash} "
            "slider={slider} version={version}".format(**m),
            file=out,
        )
    print(
        f"records: {payload['n_records']} ({payload['n_spans']} spans, "
        f"{payload['n_events']} events, {len(payload['manifests'])} manifest)",
        file=out,
    )
    if payload["time_range"]:
        lo, hi = payload["time_range"]["min"], payload["time_range"]["max"]
        print(
            f"time range: {lo:.3f} .. {hi:.3f} ({format_time(lo)} .. {format_time(hi)})",
            file=out,
        )
    _render_counts("spans by name", payload["spans_by_name"], out)
    _render_counts("events by name", payload["events_by_name"], out)
    _summarize_metrics(args.trace, out)
    _summarize_alerts(records, out)
    return _rot_guard(payload["n_spans"])


def _is_metrics(snapshot: dict) -> bool:
    """Every counter/gauge entry carries a numeric value (and min/max)."""
    return all(
        isinstance(m, dict)
        and (
            m.get("kind") not in ("counter", "gauge")
            or all(
                isinstance(m.get(key, m.get("value")), (int, float))
                for key in ("value", "min", "max")
            )
        )
        for m in snapshot.values()
    )


def _summarize_metrics(trace_path: str, out: IO[str], top: int = 5) -> None:
    """Render the metrics snapshot sitting next to a trace, when present.

    ``obs smoke`` writes ``<trace>.metrics.json`` alongside the trace; show
    the heaviest counters and each gauge's extremes so a summarize is a
    one-stop look at the run.  Silently skipped when absent or unreadable —
    the trace summary must not fail because a sidecar file rotted.
    """
    metrics_path = sidecar_path(trace_path, "metrics")
    try:
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    if not isinstance(snapshot, dict) or not snapshot or not _is_metrics(snapshot):
        return
    counters = {
        name: m for name, m in snapshot.items() if m.get("kind") == "counter"
    }
    gauges = {name: m for name, m in snapshot.items() if m.get("kind") == "gauge"}
    print(f"metrics snapshot: {len(snapshot)} series ({metrics_path.name})", file=out)
    if counters:
        print("top counters:", file=out)
        ranked = sorted(counters, key=lambda n: (-counters[n]["value"], n))
        for name in ranked[:top]:
            print(f"  {name:<44} {counters[name]['value']:>12g}", file=out)
    if gauges:
        print("gauge extremes:", file=out)
        for name in sorted(gauges):
            g = gauges[name]
            # min/max entered the snapshot in schema v2; tolerate v1 files.
            lo, hi = g.get("min", g["value"]), g.get("max", g["value"])
            print(
                f"  {name:<44} last={g['value']:g} min={lo:g} max={hi:g}",
                file=out,
            )


def _summarize_alerts(records: list[dict], out: IO[str], top: int = 5) -> None:
    """Render the alert lifecycle from the trace's ``alert.*`` events.

    Show fire/resolve counts, the loudest alerts, and whatever is still
    burning when its run ends.  A merged fleet trace holds one run per
    manifest record, so open alerts are tracked per run: one run's
    unresolved alert stays listed even if a later run reuses its name.
    """
    fires: Counter[str] = Counter()
    resolves = runs = 0
    open_alerts: dict[tuple[int, str], str] = {}  # (run, alert) -> severity
    for record in records:
        runs += record.get("type") == "manifest"
        if is_alert_event(record):
            attrs = record.get("attrs", {})
            name = str(attrs.get("alert", "?"))
            key = (runs, name)
            if record["name"] == "alert.fire":
                fires[name] += 1
                open_alerts[key] = str(attrs.get("severity", "?"))
            else:
                resolves += 1
                open_alerts.pop(key, None)
    if not fires and not resolves:
        return
    n_fires = sum(fires.values())
    print(
        f"alerts: {n_fires + resolves} lifecycle events "
        f"({n_fires} fires, {resolves} resolves)",
        file=out,
    )
    if fires:
        print("top alerts by fires:", file=out)
        for name in sorted(fires, key=lambda n: (-fires[n], n))[:top]:
            print(f"  {name:<44} {fires[name]:>8}", file=out)
    if open_alerts:
        names = ", ".join(f"{n} ({sev})" for (_, n), sev in sorted(open_alerts.items()))
        print(f"still active at end of run: {names}", file=out)


def diff(args: argparse.Namespace, out: IO[str]) -> int:
    """Compare two traces; identical bytes exit 0, any difference exits 1."""
    text_a = pathlib.Path(args.trace_a).read_text(encoding="utf-8")
    text_b = pathlib.Path(args.trace_b).read_text(encoding="utf-8")
    if text_a == text_b:
        n = sum(1 for line in text_a.splitlines() if line.strip())
        print(f"traces identical ({n} records)", file=out)
        return 0
    records_a, records_b = _load(args.trace_a), _load(args.trace_b)
    print(f"traces differ: {len(records_a)} vs {len(records_b)} records", file=out)
    for record_type in ("span", "event"):
        counts_a = _counts_by_name(records_a, record_type)
        counts_b = _counts_by_name(records_b, record_type)
        for name in sorted(set(counts_a) | set(counts_b)):
            a, b = counts_a.get(name, 0), counts_b.get(name, 0)
            if a != b:
                print(f"  {record_type} {name!r}: {a} vs {b}", file=out)
    for i, (ra, rb) in enumerate(zip(records_a, records_b), start=1):
        if ra != rb:
            print(f"first differing record: line {i}", file=out)
            print(f"  a: {json.dumps(ra, sort_keys=True)}", file=out)
            print(f"  b: {json.dumps(rb, sort_keys=True)}", file=out)
            break
    return 1


def profile(args: argparse.Namespace, out: IO[str]) -> int:
    """Per-span-name stats (and optional run-to-run diff); 1 on zero spans."""
    records = _load(args.trace)
    prof = profile_records(records)
    if args.folded:
        # Collapsed stacks for flamegraph tooling; byte-stable, so it can be
        # golden-file tested (--top/--diff don't apply to this format).
        out.write(to_folded(records))
        return _rot_guard(prof.n_spans)
    print(
        f"profile: {prof.n_spans} spans / {prof.n_events} events, "
        f"total span sim-time {prof.total_time:.3f}s",
        file=out,
    )
    if prof.spans:
        print(
            f"{'span':<36} {'count':>7} {'total s':>10} {'self s':>10} "
            f"{'min s':>8} {'max s':>8}",
            file=out,
        )
        for stats in prof.top(args.top):
            print(
                f"{stats.name:<36} {stats.count:>7} {stats.total_time:>10.3f} "
                f"{stats.self_time:>10.3f} {stats.min_time:>8.3f} {stats.max_time:>8.3f}",
                file=out,
            )
        path_rows = critical_path(records)
        chain = " -> ".join(row["name"] for row in path_rows)
        print(f"critical path ({len(path_rows)} spans): {chain}", file=out)
    if args.diff is not None:
        delta = diff_profiles(prof, profile_records(_load(args.diff)))
        print(
            f"diff vs {args.diff}: {delta['n_spans_before']} -> "
            f"{delta['n_spans_after']} spans",
            file=out,
        )
        changed = [r for r in delta["spans"] if r["count_delta"] or r["time_delta"]]
        for row in changed:
            print(
                f"  {row['name']:<36} count {row['count_before']:>6} -> "
                f"{row['count_after']:<6} time {row['time_before']:>9.3f} -> "
                f"{row['time_after']:<9.3f}",
                file=out,
            )
        if not changed:
            print("  (no per-span differences)", file=out)
    return _rot_guard(prof.n_spans)


def _load_series(trace_path: str, series_path: str | None) -> SeriesRegistry:
    path = pathlib.Path(
        series_path if series_path is not None else sidecar_path(trace_path, "series")
    )
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path}: not a series snapshot (expected an object)")
    try:
        return SeriesRegistry.from_snapshot(snapshot)
    except (KeyError, TypeError, ValueError, ObservabilityError) as exc:
        raise ValueError(f"{path}: not a series snapshot ({exc!r})") from exc


def slo(args: argparse.Namespace, out: IO[str]) -> int:
    """Evaluate the inferred SLO set over a run's series; 1 when none apply."""
    registry = _load_series(args.trace, args.series)
    specs = default_slos(registry, spend_budget_per_hour=args.budget)
    report = evaluate_all(specs, registry)
    for result in sorted(report.results, key=lambda r: r.spec.name):
        status = "OK" if result.ok else f"{len(result.violations)} violation(s)"
        print(
            f"{result.spec.name:<28} {result.spec.aggregate}({result.spec.metric}) "
            f"{result.spec.op} {result.spec.threshold:g}  "
            f"buckets={result.buckets_evaluated} bad={result.bad_buckets} "
            f"compliance={result.compliance:.1%}  {status}",
            file=out,
        )
        for violation in result.violations:
            resolved = (
                format_time(violation.resolved_at)
                if violation.resolved_at is not None
                else "unresolved"
            )
            print(
                f"  burn: fired {format_time(violation.fired_at)} "
                f"resolved {resolved} peak={violation.peak_burn:.0%} "
                f"bad_buckets={violation.bad_buckets}",
                file=out,
            )
    if report.skipped:
        print(f"skipped (no series): {', '.join(report.skipped)}", file=out)
    if not report.results:
        print(
            "error: no SLO could be evaluated (no monitor/billing series "
            "recorded — series rot?)",
            file=sys.stderr,
        )
        return 1
    print(f"evaluated {len(report.results)} SLO(s): ok={report.ok}", file=out)
    return 0


def alerts(args: argparse.Namespace, out: IO[str]) -> int:
    """Render the alert fire/resolve timeline recorded in a trace."""
    rows = [r for r in _load(args.trace) if is_alert_event(r)]
    if not rows:
        print("no alert events in trace", file=out)
        return 0
    open_count = 0
    for row in rows:
        attrs = row.get("attrs", {})
        state = "FIRE   " if row["name"] == "alert.fire" else "RESOLVE"
        open_count += 1 if row["name"] == "alert.fire" else -1
        detail = ""
        if row["name"] == "alert.resolve":
            detail = f" after {attrs.get('duration', 0.0):.0f}s"
            if attrs.get("refires"):
                detail += f" ({attrs['refires']} re-fires suppressed)"
        elif attrs.get("reason"):
            detail = f" [{attrs['reason']}]"
        print(
            f"{format_time(row['time']):>12} {state} "
            f"{attrs.get('severity', '?'):<8} {attrs.get('alert', '?')}{detail}",
            file=out,
        )
    print(f"{len(rows)} alert events, {open_count} still active at end of run", file=out)
    return 0


def report(args: argparse.Namespace, out: IO[str]) -> int:
    """Render the per-run markdown report next to the trace."""
    # Imported here so trace-only subcommands stay import-light.
    from repro.portal.reports import render_run_report

    records = _load(args.trace)
    try:
        registry = _load_series(args.trace, None)
        slo_report = evaluate_all(
            default_slos(registry, spend_budget_per_hour=args.budget), registry
        )
    except (OSError, ValueError, ObservabilityError):
        slo_report = None  # no usable series sidecar: report without SLOs
    prof = profile_records(records)
    markdown = render_run_report(
        records, prof, critical_path(records), slo_report=slo_report
    )
    target = (
        pathlib.Path(args.out) if args.out is not None
        else sidecar_path(args.trace, "report")
    )
    target.write_text(markdown, encoding="utf-8")
    print(f"report: {target} ({len(markdown.splitlines())} lines)", file=out)
    return 0


def _store_from_trace(path: str) -> FleetStore:
    """Ingest one trace file into a fresh store (run label = file stem)."""
    store = FleetStore()
    store.ingest_trace_records(_load(path), run=pathlib.Path(path).stem)
    return store


def decisions(args: argparse.Namespace, out: IO[str]) -> int:
    """Decision provenance timeline; exit 1 when the trace recorded none."""
    store = _store_from_trace(args.trace)
    everything = store.decisions()
    if not everything:
        print(
            "error: trace contains no provenance.decision events "
            "(provenance rot? traces predating schema v1 have none)",
            file=sys.stderr,
        )
        return 1
    rows = store.decisions(warehouse=args.warehouse, decision_kind=args.kind)
    sealed = [r for r in rows if r.get("outcome")]
    print(
        f"decisions: {len(rows)} shown of {len(everything)} recorded "
        f"({len(sealed)} sealed), warehouses: "
        f"{', '.join(store.warehouses()) or '-'}",
        file=out,
    )
    _render_counts(
        "decisions by kind", Counter(str(row.get("kind", "?")) for row in rows), out
    )
    _render_counts(
        "decisions by reason code",
        Counter(str(row.get("reason_code", "") or "?") for row in rows),
        out,
    )
    shown = rows[-args.top:] if args.top else []
    if shown:
        print(f"last {len(shown)} decisions:", file=out)
    for row in shown:
        outcome = row.get("outcome")
        detail = ""
        if outcome:
            realized = outcome.get("realized_credits")
            error = outcome.get("error_credits")
            detail = f"  realized={realized:.4f}cr" if realized is not None else ""
            if error is not None:
                detail += f" err={error:+.4f}cr"
            if outcome.get("applied") is False:
                detail += f" APPLY-FAILED[{outcome.get('apply_error', '')}]"
        print(
            f"{format_time(row['time']):>12} {str(row.get('kind', '?')):<10} "
            f"{str(row.get('reason_code', '') or '?'):<30} "
            f"-> {row.get('target', '?')}{detail}",
            file=out,
        )
    return 0


def attribution(args: argparse.Namespace, out: IO[str]) -> int:
    """Savings attribution + calibration; exit 1 when conservation fails."""
    report = _store_from_trace(args.trace).attribution_report()
    if not report["warehouses"]:
        print(
            "error: trace contains no provenance.attribution events "
            "(no savings reported, or provenance rot)",
            file=sys.stderr,
        )
        return 1
    failed = []
    for name, agg in report["warehouses"].items():
        ledger = agg["ledger_credits"]
        ledger_text = f"{ledger:.6f}" if ledger is not None else "n/a"
        status = "conserved" if agg["conserved"] else "CONSERVATION VIOLATED"
        print(
            f"{name}: {agg['n_entries']} ledger entries over "
            f"{agg['n_decisions']} decisions  "
            f"attributed={agg['attributed_credits']:.6f}cr "
            f"ledger={ledger_text}cr  {status}",
            file=out,
        )
        print(
            f"  calibration: {agg['n_sealed']} sealed, "
            f"{agg['n_with_prediction']} with what-if prediction, "
            f"mean |err|={agg['mean_abs_error_credits']:.5f}cr "
            f"mean err={agg['mean_error_credits']:+.5f}cr "
            f"(predicted {agg['total_predicted_credits']:.4f}cr vs "
            f"realized {agg['total_realized_credits']:.4f}cr)",
            file=out,
        )
        if not agg["conserved"]:
            failed.append(name)
    for title, key, sign in (
        ("top decisions by attributed savings", "top_savings", "credits"),
        ("top decisions by prediction regret", "top_regret", "error_credits"),
    ):
        rows = report[key][: args.top]
        if not rows:
            continue
        print(f"{title}:", file=out)
        for row in rows:
            decision = row.get("decision") or {}
            label = decision.get("reason_code") or decision.get("kind") or "?"
            print(
                f"  seq={row['seq']:<5} {row[sign]:>+12.6f}cr  "
                f"{row['warehouse']:<12} {label}",
                file=out,
            )
    if args.out is not None:
        pathlib.Path(args.out).write_text(dumps_json(report), encoding="utf-8")
        print(f"attribution report: {args.out}", file=out)
    if failed:
        print(
            f"error: attribution does not conserve ledger credits for: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def store_ingest(args: argparse.Namespace, out: IO[str]) -> int:
    """Extract store rows from trace files into a store JSONL."""
    store = FleetStore()
    labels: dict[str, int] = {}
    for trace_path in args.traces:
        stem = pathlib.Path(trace_path).stem
        n = labels.get(stem, 0)
        labels[stem] = n + 1
        run_label = stem if n == 0 else f"{stem}#{n}"
        ingested = store.ingest_trace_records(_load(trace_path), run=run_label)
        print(f"ingested {trace_path}: {ingested} rows as run {run_label!r}", file=out)
    store.dump(args.out)
    print(
        f"store: {args.out} ({len(store)} rows, {len(store.runs())} runs, "
        f"{len(store.warehouses())} warehouses)",
        file=out,
    )
    return 0


def store_query(args: argparse.Namespace, out: IO[str]) -> int:
    """Filter store rows, printed as JSON lines."""
    store = FleetStore.load(args.store)
    if args.during_alerts is not None:
        rows = store.decisions_during_alerts(prefix=args.during_alerts or None)
    else:
        rows = store.query(
            warehouse=args.warehouse,
            kind=args.kind,
            since=args.since,
            until=args.until,
            run=args.run_label,
        )
    for row in rows[: args.limit]:
        print(canonical_json(row), file=out)
    print(f"{len(rows)} rows ({min(len(rows), args.limit)} shown)", file=out)
    return 0


def store_rollup(args: argparse.Namespace, out: IO[str]) -> int:
    """Per-(run, warehouse, bucket) decision/credit aggregates."""
    rows = FleetStore.load(args.store).rollup(bucket_seconds=args.bucket)
    print(
        f"{'run':<16} {'warehouse':<12} {'bucket start':>12} {'decisions':>10} "
        f"{'realized cr':>12} {'predicted cr':>12} {'|err| cr':>10} "
        f"{'savings cr':>11}",
        file=out,
    )
    for row in rows:
        n_decisions = sum(row["decisions"].values())
        print(
            f"{row['run']:<16} {row['warehouse']:<12} "
            f"{row['bucket_start']:>12.0f} {n_decisions:>10} "
            f"{row['realized_credits']:>12.4f} {row['predicted_credits']:>12.4f} "
            f"{row['abs_error_credits']:>10.4f} {row['savings_credits']:>11.4f}",
            file=out,
        )
    print(f"{len(rows)} buckets", file=out)
    return 0


def store_top(args: argparse.Namespace, out: IO[str]) -> int:
    """Best decisions by attributed savings, worst by prediction regret."""
    store = FleetStore.load(args.store)
    for title, rows, key in (
        ("top savings", store.top_savings(args.k), "credits"),
        ("top regret", store.top_regret(args.k), "error_credits"),
    ):
        print(f"{title}:", file=out)
        for row in rows:
            print(
                f"  {row['run']:<16} {row['warehouse']:<12} seq={row['seq']:<5} "
                f"{row[key]:>+12.6f}cr",
                file=out,
            )
        if not rows:
            print("  (none)", file=out)
    return 0


def smoke(args: argparse.Namespace, out: IO[str]) -> int:
    """Run the smoke scenario traced; write the trace and its sidecars."""
    # Imported here: the experiments stack pulls in the whole library, and
    # `obs summarize`/`obs diff` should stay usable without that cost.
    from repro import obs
    from repro.experiments.runner import run_before_after
    from repro.experiments.scenarios import smoke_scenario

    scenario = smoke_scenario(seed=args.seed)
    with obs.observed(manifest=scenario.manifest()) as rec:
        result, _ = run_before_after(scenario)
    trace_path = rec.dump(args.out)
    print(
        f"smoke run: scenario={scenario.name} seed={args.seed} "
        f"savings={result.savings_fraction:+.1%}",
        file=out,
    )
    print(f"trace:   {trace_path} ({len(rec.sink)} records)", file=out)
    print(
        f"metrics: {sidecar_path(trace_path, 'metrics')} ({len(rec.metrics)} series)",
        file=out,
    )
    print(
        f"series:  {sidecar_path(trace_path, 'series')} "
        f"({len(rec.series)} bucketed series)",
        file=out,
    )
    return summarize(argparse.Namespace(trace=str(trace_path), fmt="text"), out)


def campaign(args: argparse.Namespace, out: IO[str]) -> int:
    """Run a streamed smoke fleet; write the merged trace and sidecars.

    The fleet's observability leaves the workers as bounded payload chunks
    (docs/OBSERVABILITY.md §v4): spill-bounded sinks, spooled chunk files,
    per-job heartbeats.  The merged trace and its metrics/series/
    campaign sidecars are byte-identical to a serial in-memory run of the
    same seeds; the ``.resources.json`` sidecar is the R018 quarantine and
    the only artifact CI must *not* compare across runs.
    """
    # Imported here: the experiments stack pulls in the whole library, and
    # trace-only subcommands should stay usable without that cost.
    from repro import obs
    from repro.experiments.runner import run_fleet
    from repro.experiments.scenarios import smoke_scenario
    from repro.parallel import StreamConfig

    n = max(args.scenarios, 1)
    scenarios = [smoke_scenario(seed=args.seed + i) for i in range(n)]
    stream_dir = pathlib.Path(
        args.dir if args.dir is not None else args.out + ".stream"
    )
    probe = obs_stream.ResourceProbe()
    cfg = StreamConfig(
        dir=stream_dir,
        max_chunk_events=args.chunk_events,
        spill_records=args.spill_records,
        probe=probe,
    )
    with obs.observed(manifest=scenarios[0].manifest()) as rec:
        result = run_fleet(scenarios, workers=args.workers, stream=cfg)
    with probe.stage("dump"):
        trace_path = rec.dump(args.out)
    summary = obs_stream.campaign_summary(stream_dir / "progress")
    summary_path = sidecar_path(trace_path, "campaign")
    summary_path.write_text(dumps_json(summary), encoding="utf-8")
    probe.sample_rss("parent")
    resources_path = sidecar_path(trace_path, "resources")
    probe.dump(resources_path)
    lo, hi = result.savings_range
    print(
        f"campaign: {n} scenario(s), workers={args.workers}, "
        f"savings range {lo:+.1%} .. {hi:+.1%}",
        file=out,
    )
    print(f"trace:     {trace_path} ({len(rec.sink)} records)", file=out)
    print(
        f"summary:   {summary_path} "
        f"(complete={summary['complete']}, {summary['totals']['chunks']} chunks)",
        file=out,
    )
    print(f"resources: {resources_path} (wall-clock quarantine, R018)", file=out)
    if not summary["complete"]:
        print("error: campaign summary reports incomplete jobs", file=sys.stderr)
        return 1
    return 0


def watch(args: argparse.Namespace, out: IO[str]) -> int:
    """Render campaign progress from heartbeat files; a viewer, not a gate.

    Exit 2 when the directory doesn't exist, 1 when it holds no heartbeats
    yet, 0 otherwise.  ``--follow`` polls until the campaign completes,
    bounded by ``--max-polls`` so the loop always terminates.
    """
    base = pathlib.Path(args.dir)
    progress = base / "progress" if (base / "progress").is_dir() else base
    if not progress.is_dir():
        raise ValueError(f"no such progress directory: {progress}")
    polls = max(args.max_polls, 1) if args.follow else 1
    for poll in range(polls):
        summary = obs_stream.campaign_summary(progress)
        if summary["complete"] or poll == polls - 1:
            break
        time.sleep(max(args.interval, 0.05))
    if not summary["jobs"]:
        print(f"error: no heartbeats under {progress}", file=sys.stderr)
        return 1
    print(
        f"{'job':>4} {'scenario':<24} {'protocol':<18} {'status':<8} "
        f"{'chunks':>6} {'records':>8} {'spans':>7} {'events':>7} {'sim time':>12}",
        file=out,
    )
    for row in summary["jobs"]:
        print(
            f"{row['job']:>4} {str(row['scenario']):<24} "
            f"{str(row['protocol']):<18} {row['status']:<8} "
            f"{row['chunks']:>6} {row['records']:>8} {row['spans']:>7} "
            f"{row['events']:>7} {format_time(row['sim_time']):>12}",
            file=out,
        )
    totals = summary["totals"]
    state = "complete" if summary["complete"] else "in flight"
    print(
        f"campaign {state}: {summary['n_jobs']} job(s), "
        f"{totals['chunks']} chunks, {totals['records']} records "
        f"({totals['spans']} spans, {totals['events']} events)",
        file=out,
    )
    if args.summary is not None:
        pathlib.Path(args.summary).write_text(dumps_json(summary), encoding="utf-8")
        print(f"summary: {args.summary}", file=out)
    return 0


def watchtower(args: argparse.Namespace, out: IO[str]) -> int:
    """Gate a fleet store against its blessed baseline; 1 on regression."""
    store = FleetStore.load(args.store)
    baseline_path = pathlib.Path(
        args.baseline if args.baseline is not None else args.store + ".baseline.json"
    )
    if args.update_baseline:
        baseline_path.write_text(
            dumps_json(obs_watchtower.fleet_baseline(store)), encoding="utf-8"
        )
        print(
            f"blessed: {baseline_path} ({len(store.runs())} run(s), "
            f"{len(store.warehouses())} warehouse(s))",
            file=out,
        )
        return 0
    baseline = None
    if baseline_path.is_file():
        baseline = obs_watchtower.load_baseline(baseline_path)
    elif args.baseline is not None:
        raise ValueError(f"no such baseline: {baseline_path}")
    thresholds = obs_watchtower.WatchtowerThresholds(
        savings_drop_tolerance=args.savings_drop_tolerance,
        alert_storm_fires=args.alert_storm_fires,
        calibration_drift_tolerance=args.calibration_drift_tolerance,
    )
    report = obs_watchtower.run_watchtower(
        store, baseline=baseline, thresholds=thresholds
    )
    if args.fmt == "json":
        rendering = dumps_json(report)
    elif args.fmt == "markdown":
        from repro.portal.reports import render_watchtower

        rendering = render_watchtower(report) + "\n"
    else:
        rendering = obs_watchtower.render_text(report) + "\n"
    if args.out is not None:
        pathlib.Path(args.out).write_text(rendering, encoding="utf-8")
        verdict = "OK" if report["ok"] else "REGRESSION"
        print(f"watchtower report: {args.out} [{verdict}]", file=out)
    else:
        out.write(rendering)
    if not report["ok"]:
        errors = [f for f in report["findings"] if f["severity"] == "error"]
        print(
            f"error: watchtower found {len(errors)} regression finding(s)",
            file=sys.stderr,
        )
        return 1
    return 0


_TRACE = flag("trace", help="path to a trace .jsonl file")
_BUDGET = flag(
    "--budget", type=float, default=DEFAULT_SPEND_BUDGET_PER_HOUR,
    help="spend-rate budget in credits/hour for the inferred spend SLO",
)
_INGESTED_STORE = flag("store", help="store .jsonl file (from `obs store ingest`)")
_THRESHOLDS = obs_watchtower.WatchtowerThresholds

#: The ``obs`` family: one row per subcommand (repro.common.cli).
COMMANDS = (
    (
        "smoke", smoke,
        "run a small scenario with tracing enabled; write trace + metrics",
        flag("--seed", type=int, default=123, help="scenario seed"),
        flag(
            "--out", default="trace.jsonl",
            help="trace JSONL output path (metrics land at <out>.metrics.json, "
            "series at <out>.series.json)",
        ),
    ),
    (
        "summarize", summarize, "summarize a trace JSONL file",
        _TRACE,
        flag(
            "--format", choices=("text", "json"), default="text", dest="fmt",
            help="json: machine-readable summary through the shared byte-stable "
            "serializer",
        ),
    ),
    (
        "diff", diff, "compare two trace JSONL files",
        flag("trace_a", help="first trace .jsonl file"),
        flag("trace_b", help="second trace .jsonl file"),
    ),
    (
        "profile", profile, "per-span-name sim-time stats and critical path",
        _TRACE,
        flag("--top", type=non_negative_int, default=15, help="rows to show"),
        flag(
            "--diff", metavar="TRACE_B", default=None,
            help="second trace: show per-span deltas (B relative to TRACE)",
        ),
        flag(
            "--folded", action="store_true",
            help="emit collapsed stacks (flamegraph.pl / speedscope folded format) "
            "instead of the table",
        ),
    ),
    (
        "slo", slo, "evaluate burn-rate SLOs over a run's metric series",
        _TRACE,
        flag(
            "--series", default=None,
            help="series JSON path (default: <trace>.series.json)",
        ),
        _BUDGET,
    ),
    ("alerts", alerts, "alert fire/resolve timeline of a trace", _TRACE),
    (
        "report", report, "render a per-run markdown report (savings, alerts, profile)",
        _TRACE,
        flag(
            "--out", default=None,
            help="markdown output path (default: <trace>.report.md)",
        ),
        _BUDGET,
    ),
    (
        "decisions", decisions, "decision provenance timeline with realized outcomes",
        _TRACE,
        flag("--warehouse", default=None, help="only decisions of this warehouse"),
        flag(
            "--kind", default=None,
            help="only decisions of this kind (hold, learned, backoff, ...)",
        ),
        flag("--top", type=non_negative_int, default=20, help="timeline rows to show"),
    ),
    (
        "attribution", attribution,
        "per-decision savings attribution and calibration (conservation-checked)",
        _TRACE,
        flag(
            "--top", type=non_negative_int, default=10,
            help="top/bottom decisions to show",
        ),
        flag(
            "--out", default=None,
            help="also write a JSON attribution report to this path",
        ),
    ),
    (
        "store",
        (
            (
                "ingest", store_ingest,
                "extract store rows from trace files into a store JSONL",
                flag("traces", nargs="+", help="trace .jsonl files to ingest"),
                flag(
                    "--out", default="fleet_store.jsonl",
                    help="store JSONL output path",
                ),
            ),
            (
                "query", store_query, "filter store rows as JSON lines",
                _INGESTED_STORE,
                flag("--warehouse", default=None),
                flag("--kind", default=None, help="decision, outcome, attribution, …"),
                # dest is not "run": that attribute names every command's handler.
                flag("--run", default=None, dest="run_label", metavar="RUN"),
                flag("--since", type=float, default=None, help="sim-time lower bound"),
                flag("--until", type=float, default=None, help="sim-time upper bound"),
                flag(
                    "--during-alerts", default=None, metavar="PREFIX",
                    dest="during_alerts",
                    help="instead: decisions whose window overlaps an alert "
                    "(name prefix)",
                ),
                flag("--limit", type=non_negative_int, default=50, help="rows to print"),
            ),
            (
                "rollup", store_rollup,
                "per-(run, warehouse, bucket) decision/credit aggregates",
                flag("store", help="store .jsonl file"),
                flag(
                    "--bucket", type=float, default=3600.0,
                    help="bucket width in sim seconds",
                ),
            ),
            (
                "top", store_top, "best decisions by attributed savings / worst by regret",
                flag("store", help="store .jsonl file"),
                flag("--k", type=non_negative_int, default=10, help="rows per ranking"),
            ),
        ),
        "fleet telemetry store: ingest traces, query, roll up",
    ),
    (
        "campaign", campaign,
        "run a streamed smoke fleet: chunked obs merge, heartbeats, sidecars",
        flag("--scenarios", type=int, default=4, help="fleet width (smoke scenarios)"),
        flag(
            "--seed", type=int, default=123,
            help="first scenario seed (job i gets seed+i)",
        ),
        flag("--workers", type=int, default=0, help="worker processes (0 = in-process)"),
        flag(
            "--out", default="campaign.jsonl",
            help="merged trace path (sidecars: <out>.metrics/.series/"
            ".campaign/.resources.json)",
        ),
        flag(
            "--dir", default=None,
            help="stream working directory for spool/spill/progress "
            "(default: <out>.stream)",
        ),
        flag(
            "--chunk-events", type=int, default=obs_stream.DEFAULT_CHUNK_EVENTS,
            help="max trace records per payload chunk",
        ),
        flag(
            "--spill-records", type=int, default=obs_stream.DEFAULT_SPILL_RECORDS,
            help="worker sink records held in memory before spilling to disk",
        ),
    ),
    (
        "watch", watch, "render campaign progress from worker heartbeats",
        flag("dir", help="campaign stream directory (or its progress/ subdirectory)"),
        flag(
            "--follow", action="store_true",
            help="poll until the campaign completes (bounded by --max-polls)",
        ),
        flag("--interval", type=float, default=0.5, help="seconds between polls"),
        flag(
            "--max-polls", type=int, default=120,
            help="poll ceiling for --follow (keeps the watch loop bounded)",
        ),
        flag(
            "--summary", default=None,
            help="also write the byte-stable campaign summary JSON to this path",
        ),
    ),
    (
        "watchtower", watchtower,
        "cross-run anomaly gate over a fleet store (savings regression, "
        "alert storms, calibration drift)",
        _INGESTED_STORE,
        flag(
            "--baseline", default=None,
            help="blessed fleet baseline JSON (default: <store>.baseline.json "
            "when present)",
        ),
        flag(
            "--update-baseline", action="store_true", dest="update_baseline",
            help="bless the current store: write its facts to the baseline path",
        ),
        flag(
            "--format", choices=("text", "json", "markdown"), default="text",
            dest="fmt", help="report rendering",
        ),
        flag("--out", default=None, help="write the rendering here instead of stdout"),
        flag(
            "--savings-drop-tolerance", type=float,
            default=_THRESHOLDS.savings_drop_tolerance,
            help="allowed relative drop in attributed credits vs baseline",
        ),
        flag(
            "--alert-storm-fires", type=int, default=_THRESHOLDS.alert_storm_fires,
            help="fires of one alert in one run that declare a storm",
        ),
        flag(
            "--calibration-drift-tolerance", type=float,
            default=_THRESHOLDS.calibration_drift_tolerance,
            help="allowed relative growth of mean |what-if error| vs baseline",
        ),
    ),
)
