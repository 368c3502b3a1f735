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

``summarize`` exits 1 for a trace with zero spans (CI uses this to guard
against silent instrumentation rot) and 2 for unreadable input; ``profile``
shares that contract.  ``slo`` exits 1 when *no* SLO could be evaluated
(no series recorded — the same rot guard for the analysis layer).  ``diff``
exits 0 when the two traces are byte-identical, 1 when they differ — the
determinism contract makes identical the expected answer for same-seed
runs.  ``decisions`` exits 1 for a trace with zero ``provenance.decision``
events, and ``attribution`` exits 1 when the conservation invariant does
not hold (per-decision shares must sum exactly to the reported savings —
docs/OBSERVABILITY.md §v3).

The streaming family (docs/OBSERVABILITY.md §v4): ``campaign`` runs a
fleet of smoke scenarios with worker observability streamed in bounded
chunks, writing the merged trace plus ``.campaign.json`` (byte-stable
summary) and ``.resources.json`` (the *only* artifact allowed to carry
wall-clock numbers — R018) sidecars; ``watch`` renders heartbeat progress
(exit 2 missing dir, 1 no heartbeats); ``watchtower`` gates a fleet store
against a blessed baseline (exit 1 on any error-severity finding).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import IO

from repro.common.simtime import format_time
from repro.common.stable_json import dumps_json
from repro.obs import stream as obs_stream
from repro.obs import watchtower as obs_watchtower
from repro.obs.metrics import ObservabilityError
from repro.obs.profile import critical_path, diff_profiles, profile_records, to_folded
from repro.obs.series import SeriesRegistry
from repro.obs.slo import DEFAULT_SPEND_BUDGET_PER_HOUR, default_slos, evaluate_all
from repro.obs.store import FleetStore


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``obs`` subcommand family (shared with ``repro.cli obs``)."""
    sub = parser.add_subparsers(dest="obs_command", required=True)

    smoke = sub.add_parser(
        "smoke",
        help="run a small scenario with tracing enabled; write trace + metrics",
    )
    smoke.add_argument("--seed", type=int, default=123, help="scenario seed")
    smoke.add_argument(
        "--out",
        default="trace.jsonl",
        help=(
            "trace JSONL output path (metrics land at <out>.metrics.json, "
            "series at <out>.series.json, alerts at <out>.alerts.json)"
        ),
    )

    summarize = sub.add_parser("summarize", help="summarize a trace JSONL file")
    summarize.add_argument("trace", help="path to a trace .jsonl file")
    summarize.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="json: machine-readable summary through the shared byte-stable serializer",
    )

    diff = sub.add_parser("diff", help="compare two trace JSONL files")
    diff.add_argument("trace_a", help="first trace .jsonl file")
    diff.add_argument("trace_b", help="second trace .jsonl file")

    profile = sub.add_parser(
        "profile", help="per-span-name sim-time stats and critical path"
    )
    profile.add_argument("trace", help="path to a trace .jsonl file")
    profile.add_argument("--top", type=int, default=15, help="rows to show")
    profile.add_argument(
        "--diff", metavar="TRACE_B", default=None,
        help="second trace: show per-span deltas (B relative to TRACE)",
    )
    profile.add_argument(
        "--folded", action="store_true",
        help="emit collapsed stacks (flamegraph.pl / speedscope folded format) "
        "instead of the table",
    )

    slo = sub.add_parser(
        "slo", help="evaluate burn-rate SLOs over a run's metric series"
    )
    slo.add_argument("trace", help="path to a trace .jsonl file")
    slo.add_argument(
        "--series", default=None,
        help="series JSON path (default: <trace>.series.json)",
    )
    slo.add_argument(
        "--budget", type=float, default=DEFAULT_SPEND_BUDGET_PER_HOUR,
        help="spend-rate budget in credits/hour for the inferred spend SLO",
    )

    alerts = sub.add_parser("alerts", help="alert fire/resolve timeline of a trace")
    alerts.add_argument("trace", help="path to a trace .jsonl file")

    report = sub.add_parser(
        "report", help="render a per-run markdown report (savings, alerts, profile)"
    )
    report.add_argument("trace", help="path to a trace .jsonl file")
    report.add_argument(
        "--out", default=None, help="markdown output path (default: <trace>.report.md)"
    )
    report.add_argument(
        "--budget", type=float, default=DEFAULT_SPEND_BUDGET_PER_HOUR,
        help="spend-rate budget in credits/hour for the inferred spend SLO",
    )

    decisions = sub.add_parser(
        "decisions", help="decision provenance timeline with realized outcomes"
    )
    decisions.add_argument("trace", help="path to a trace .jsonl file")
    decisions.add_argument(
        "--warehouse", default=None, help="only decisions of this warehouse"
    )
    decisions.add_argument(
        "--kind", default=None,
        help="only decisions of this kind (hold, learned, backoff, ...)",
    )
    decisions.add_argument(
        "--top", type=int, default=20, help="timeline rows to show"
    )

    attribution = sub.add_parser(
        "attribution",
        help="per-decision savings attribution and calibration (conservation-checked)",
    )
    attribution.add_argument("trace", help="path to a trace .jsonl file")
    attribution.add_argument(
        "--top", type=int, default=10, help="top/bottom decisions to show"
    )
    attribution.add_argument(
        "--out", default=None,
        help="also write a JSON attribution report to this path",
    )

    store = sub.add_parser(
        "store", help="fleet telemetry store: ingest traces, query, roll up"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    ingest = store_sub.add_parser(
        "ingest", help="extract store rows from trace files into a store JSONL"
    )
    ingest.add_argument("traces", nargs="+", help="trace .jsonl files to ingest")
    ingest.add_argument(
        "--out", default="fleet_store.jsonl", help="store JSONL output path"
    )
    query = store_sub.add_parser("query", help="filter store rows as JSON lines")
    query.add_argument("store", help="store .jsonl file (from `obs store ingest`)")
    query.add_argument("--warehouse", default=None)
    query.add_argument("--kind", default=None, help="decision, outcome, attribution, …")
    query.add_argument("--run", default=None)
    query.add_argument("--since", type=float, default=None, help="sim-time lower bound")
    query.add_argument("--until", type=float, default=None, help="sim-time upper bound")
    query.add_argument(
        "--during-alerts", default=None, metavar="PREFIX", dest="during_alerts",
        help="instead: decisions whose window overlaps an alert (name prefix)",
    )
    query.add_argument("--limit", type=int, default=50, help="rows to print")
    rollup = store_sub.add_parser(
        "rollup", help="per-(run, warehouse, bucket) decision/credit aggregates"
    )
    rollup.add_argument("store", help="store .jsonl file")
    rollup.add_argument(
        "--bucket", type=float, default=3600.0, help="bucket width in sim seconds"
    )
    top = store_sub.add_parser(
        "top", help="best decisions by attributed savings / worst by regret"
    )
    top.add_argument("store", help="store .jsonl file")
    top.add_argument("--k", type=int, default=10, help="rows per ranking")

    campaign = sub.add_parser(
        "campaign",
        help="run a streamed smoke fleet: chunked obs merge, heartbeats, sidecars",
    )
    campaign.add_argument(
        "--scenarios", type=int, default=4, help="fleet width (smoke scenarios)"
    )
    campaign.add_argument(
        "--seed", type=int, default=123, help="first scenario seed (job i gets seed+i)"
    )
    campaign.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = in-process)"
    )
    campaign.add_argument(
        "--out",
        default="campaign.jsonl",
        help="merged trace path (sidecars: <out>.metrics/.series/.alerts/"
        ".campaign/.resources.json)",
    )
    campaign.add_argument(
        "--dir", default=None,
        help="stream working directory for spool/spill/progress "
        "(default: <out>.stream)",
    )
    campaign.add_argument(
        "--chunk-events", type=int, default=obs_stream.DEFAULT_CHUNK_EVENTS,
        help="max trace records per payload chunk",
    )
    campaign.add_argument(
        "--spill-records", type=int, default=obs_stream.DEFAULT_SPILL_RECORDS,
        help="worker sink records held in memory before spilling to disk",
    )

    watch = sub.add_parser(
        "watch", help="render campaign progress from worker heartbeats"
    )
    watch.add_argument(
        "dir", help="campaign stream directory (or its progress/ subdirectory)"
    )
    watch.add_argument(
        "--follow", action="store_true",
        help="poll until the campaign completes (bounded by --max-polls)",
    )
    watch.add_argument(
        "--interval", type=float, default=0.5, help="seconds between polls"
    )
    watch.add_argument(
        "--max-polls", type=int, default=120,
        help="poll ceiling for --follow (keeps the watch loop bounded)",
    )
    watch.add_argument(
        "--summary", default=None,
        help="also write the byte-stable campaign summary JSON to this path",
    )

    tower = sub.add_parser(
        "watchtower",
        help="cross-run anomaly gate over a fleet store (savings regression, "
        "alert storms, calibration drift)",
    )
    tower.add_argument("store", help="store .jsonl file (from `obs store ingest`)")
    tower.add_argument(
        "--baseline", default=None,
        help="blessed fleet baseline JSON (default: <store>.baseline.json "
        "when present)",
    )
    tower.add_argument(
        "--update-baseline", action="store_true", dest="update_baseline",
        help="bless the current store: write its facts to the baseline path",
    )
    tower.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text",
        dest="fmt", help="report rendering",
    )
    tower.add_argument(
        "--out", default=None, help="write the rendering here instead of stdout"
    )
    tower.add_argument(
        "--savings-drop-tolerance", type=float,
        default=obs_watchtower.WatchtowerThresholds.savings_drop_tolerance,
        help="allowed relative drop in attributed credits vs baseline",
    )
    tower.add_argument(
        "--alert-storm-fires", type=int,
        default=obs_watchtower.WatchtowerThresholds.alert_storm_fires,
        help="fires of one alert in one run that declare a storm",
    )
    tower.add_argument(
        "--calibration-drift-tolerance", type=float,
        default=obs_watchtower.WatchtowerThresholds.calibration_drift_tolerance,
        help="allowed relative growth of mean |what-if error| vs baseline",
    )


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
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(f"{path}:{i}: not a trace record (no 'type' key)")
        records.append(record)
    return records


def _counts_by_name(records: list[dict], record_type: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        if record.get("type") == record_type:
            name = str(record.get("name", "<unnamed>"))
            counts[name] = counts.get(name, 0) + 1
    return counts


def _render_counts(title: str, counts: dict[str, int], out: IO[str]) -> None:
    if not counts:
        return
    print(f"{title}:", file=out)
    # Heaviest first; name breaks ties so output is deterministic.
    for name in sorted(counts, key=lambda n: (-counts[n], n)):
        print(f"  {name:<36} {counts[name]:>8}", file=out)


def _summary_payload(path: str, records: list[dict]) -> dict:
    """The machine-readable summarize view, shaped for ``dumps_json``.

    Everything here is a pure function of the trace bytes plus sidecar
    *presence* (not sidecar content), so same-seed runs summarize to
    identical JSON.
    """
    spans = _counts_by_name(records, "span")
    events = _counts_by_name(records, "event")
    times = [r["time"] for r in records if "time" in r]
    sidecars = {
        kind: pathlib.Path(f"{path}.{kind}.json").is_file()
        for kind in ("metrics", "series", "alerts", "campaign", "resources")
    }
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
        "sidecars": sidecars,
    }


def summarize(path: str, out: IO[str], fmt: str = "text") -> int:
    """Render the trace's shape; exit 1 when it contains no spans."""
    try:
        records = _load(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        payload = _summary_payload(path, records)
        out.write(dumps_json(payload))
        if payload["n_spans"] == 0:
            print(
                "error: trace contains no spans (instrumentation rot?)",
                file=sys.stderr,
            )
            return 1
        return 0
    manifests = [r for r in records if r["type"] == "manifest"]
    for m in manifests:
        print(
            "manifest: scenario={scenario} seed={seed} config={config_hash} "
            "slider={slider} version={version}".format(
                **{
                    k: m.get(k)
                    for k in ("scenario", "seed", "config_hash", "slider", "version")
                }
            ),
            file=out,
        )
    spans = _counts_by_name(records, "span")
    events = _counts_by_name(records, "event")
    n_spans = sum(spans.values())
    n_events = sum(events.values())
    print(
        f"records: {len(records)} ({n_spans} spans, {n_events} events, "
        f"{len(manifests)} manifest)",
        file=out,
    )
    times = [r["time"] for r in records if "time" in r]
    if times:
        lo, hi = min(times), max(times)
        print(
            f"time range: {lo:.3f} .. {hi:.3f} ({format_time(lo)} .. {format_time(hi)})",
            file=out,
        )
    _render_counts("spans by name", spans, out)
    _render_counts("events by name", events, out)
    _summarize_metrics(path, out)
    _summarize_alerts(path, out)
    if n_spans == 0:
        print("error: trace contains no spans (instrumentation rot?)", file=sys.stderr)
        return 1
    return 0


def _summarize_metrics(trace_path: str, out: IO[str], top: int = 5) -> None:
    """Render the metrics snapshot sitting next to a trace, when present.

    ``obs smoke`` writes ``<trace>.metrics.json`` alongside the trace; show
    the heaviest counters and each gauge's extremes so a summarize is a
    one-stop look at the run.  Silently skipped when absent or unreadable —
    the trace summary must not fail because a sidecar file rotted.
    """
    metrics_path = pathlib.Path(trace_path + ".metrics.json")
    try:
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    if not isinstance(snapshot, dict) or not snapshot:
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


def _summarize_alerts(trace_path: str, out: IO[str], top: int = 5) -> None:
    """Render the alert lifecycle sidecar next to a trace, when present.

    ``obs smoke`` (and the chaos runners) write ``<trace>.alerts.json``
    alongside the trace; show fire/resolve counts, the loudest alerts,
    and whatever is still burning.  Silently skipped when absent or
    unreadable — same tolerance as :func:`_summarize_metrics`.
    """
    alerts_path = pathlib.Path(trace_path + ".alerts.json")
    try:
        snapshot = json.loads(alerts_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    if not isinstance(snapshot, dict):
        return
    history = snapshot.get("history", [])
    active = snapshot.get("active", [])
    if not history and not active:
        return
    fires = sum(1 for row in history if row.get("state") == "fire")
    resolves = sum(1 for row in history if row.get("state") == "resolve")
    print(
        f"alerts sidecar: {len(history)} lifecycle events "
        f"({fires} fires, {resolves} resolves) ({alerts_path.name})",
        file=out,
    )
    per_alert: dict[str, int] = {}
    for row in history:
        if row.get("state") == "fire":
            name = str(row.get("alert", "<unnamed>"))
            per_alert[name] = per_alert.get(name, 0) + 1
    if per_alert:
        print("top alerts by fires:", file=out)
        for name in sorted(per_alert, key=lambda n: (-per_alert[n], n))[:top]:
            print(f"  {name:<44} {per_alert[name]:>8}", file=out)
    if active:
        names = ", ".join(
            f"{a.get('alert', '?')} ({a.get('severity', '?')})" for a in active
        )
        print(f"still active at end of run: {names}", file=out)


def diff(path_a: str, path_b: str, out: IO[str]) -> int:
    """Compare two traces; identical bytes exit 0, any difference exits 1."""
    try:
        text_a = pathlib.Path(path_a).read_text(encoding="utf-8")
        text_b = pathlib.Path(path_b).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text_a == text_b:
        n = sum(1 for line in text_a.splitlines() if line.strip())
        print(f"traces identical ({n} records)", file=out)
        return 0
    try:
        records_a, records_b = _load(path_a), _load(path_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def profile(
    path: str,
    out: IO[str],
    top: int = 15,
    diff_path: str | None = None,
    folded: bool = False,
) -> int:
    """Per-span-name stats (and optional run-to-run diff); 1 on zero spans."""
    try:
        records = _load(path)
        prof = profile_records(records)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if folded:
        # Collapsed stacks for flamegraph tooling; byte-stable, so it can be
        # golden-file tested (--top/--diff don't apply to this format).
        out.write(to_folded(records))
        if prof.n_spans == 0:
            print(
                "error: trace contains no spans (instrumentation rot?)",
                file=sys.stderr,
            )
            return 1
        return 0
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
        for stats in prof.top(top):
            print(
                f"{stats.name:<36} {stats.count:>7} {stats.total_time:>10.3f} "
                f"{stats.self_time:>10.3f} {stats.min_time:>8.3f} {stats.max_time:>8.3f}",
                file=out,
            )
        path_rows = critical_path(records)
        chain = " -> ".join(row["name"] for row in path_rows)
        print(f"critical path ({len(path_rows)} spans): {chain}", file=out)
    if diff_path is not None:
        try:
            other = profile_records(_load(diff_path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        delta = diff_profiles(prof, other)
        print(
            f"diff vs {diff_path}: {delta['n_spans_before']} -> "
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
    if prof.n_spans == 0:
        print("error: trace contains no spans (instrumentation rot?)", file=sys.stderr)
        return 1
    return 0


def _load_series(trace_path: str, series_path: str | None) -> SeriesRegistry:
    path = pathlib.Path(
        series_path if series_path is not None else trace_path + ".series.json"
    )
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path}: not a series snapshot (expected an object)")
    return SeriesRegistry.from_snapshot(snapshot)


def slo(
    trace_path: str,
    out: IO[str],
    series_path: str | None = None,
    budget_per_hour: float = DEFAULT_SPEND_BUDGET_PER_HOUR,
) -> int:
    """Evaluate the inferred SLO set over a run's series; 1 when none apply."""
    try:
        registry = _load_series(trace_path, series_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = default_slos(registry, spend_budget_per_hour=budget_per_hour)
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


def alerts(trace_path: str, out: IO[str]) -> int:
    """Render the alert fire/resolve timeline recorded in a trace."""
    try:
        records = _load(trace_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") in ("alert.fire", "alert.resolve")
    ]
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


def report(
    trace_path: str,
    out: IO[str],
    out_path: str | None = None,
    budget_per_hour: float = DEFAULT_SPEND_BUDGET_PER_HOUR,
) -> int:
    """Render the per-run markdown report next to the trace."""
    # Imported here so trace-only subcommands stay import-light.
    from repro.portal.reports import render_run_report

    try:
        records = _load(trace_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        registry = _load_series(trace_path, None)
        slo_report = evaluate_all(
            default_slos(registry, spend_budget_per_hour=budget_per_hour), registry
        )
    except (OSError, ValueError):
        slo_report = None  # no series sidecar: report without the SLO section
    prof = profile_records(records)
    markdown = render_run_report(
        records, prof, critical_path(records), slo_report=slo_report
    )
    target = pathlib.Path(
        out_path if out_path is not None else trace_path + ".report.md"
    )
    target.write_text(markdown, encoding="utf-8")
    print(f"report: {target} ({len(markdown.splitlines())} lines)", file=out)
    return 0


def _store_from_trace(path: str) -> FleetStore:
    """Ingest one trace file into a fresh store (run label = file stem)."""
    store = FleetStore()
    store.ingest_trace_records(_load(path), run=pathlib.Path(path).stem)
    return store


def decisions(
    path: str,
    out: IO[str],
    warehouse: str | None = None,
    kind: str | None = None,
    top: int = 20,
) -> int:
    """Decision provenance timeline; exit 1 when the trace recorded none."""
    try:
        store = _store_from_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    everything = store.decisions()
    if not everything:
        print(
            "error: trace contains no provenance.decision events "
            "(provenance rot? traces predating schema v1 have none)",
            file=sys.stderr,
        )
        return 1
    rows = store.decisions(warehouse=warehouse, decision_kind=kind)
    sealed = [r for r in rows if r.get("outcome")]
    print(
        f"decisions: {len(rows)} shown of {len(everything)} recorded "
        f"({len(sealed)} sealed), warehouses: "
        f"{', '.join(store.warehouses()) or '-'}",
        file=out,
    )
    by_kind: dict[str, int] = {}
    by_reason: dict[str, int] = {}
    for row in rows:
        by_kind[str(row.get("kind", "?"))] = by_kind.get(str(row.get("kind", "?")), 0) + 1
        code = str(row.get("reason_code", "") or "?")
        by_reason[code] = by_reason.get(code, 0) + 1
    _render_counts("decisions by kind", by_kind, out)
    _render_counts("decisions by reason code", by_reason, out)
    shown = rows[-max(top, 0):] if top else []
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


def _attribution_report(store: FleetStore) -> dict:
    """The attribution/calibration facts of one store, as plain data.

    ``conserved`` does float comparisons with ``==`` on purpose: the
    provenance layer guarantees bit-exact conservation (split_exact), so
    any drift at all is a bug worth failing on.
    """
    warehouses: dict[str, dict] = {}

    def bucket(warehouse: str) -> dict:
        if warehouse not in warehouses:
            warehouses[warehouse] = {
                "n_entries": 0,
                "entries_conserved": True,
                "attributed_credits": 0.0,
                "ledger_credits": None,
                "n_decisions": 0,
                "n_sealed": 0,
                "n_with_prediction": 0,
                "sum_abs_error_credits": 0.0,
                "sum_error_credits": 0.0,
                "total_predicted_credits": 0.0,
                "total_realized_credits": 0.0,
            }
        return warehouses[warehouse]

    for row in store.query(kind="attribution"):
        agg = bucket(row["warehouse"])
        shares_total = 0.0
        for share in row["data"].get("shares", []):
            shares_total += float(share["credits"])
        if shares_total != row["data"].get("savings_credits"):
            agg["entries_conserved"] = False
        agg["n_entries"] += 1
        agg["attributed_credits"] += shares_total
    for row in store.query(kind="savings_report"):
        credits = row["data"].get("savings_credits")
        if credits is None:
            continue  # traces predating the credits attr: no ledger check
        agg = bucket(row["warehouse"])
        if agg["ledger_credits"] is None:
            agg["ledger_credits"] = 0.0
        agg["ledger_credits"] += float(credits)
    for row in store.query(kind="decision"):
        bucket(row["warehouse"])["n_decisions"] += 1
    for row in store.query(kind="outcome"):
        agg = bucket(row["warehouse"])
        agg["n_sealed"] += 1
        agg["total_realized_credits"] += float(
            row["data"].get("realized_credits") or 0.0
        )
        error = row["data"].get("error_credits")
        if error is not None:
            agg["n_with_prediction"] += 1
            agg["sum_error_credits"] += float(error)
            agg["sum_abs_error_credits"] += abs(float(error))
            agg["total_predicted_credits"] += float(
                row["data"].get("predicted_credits") or 0.0
            )
    for agg in warehouses.values():
        agg["conserved"] = agg["entries_conserved"] and (
            agg["ledger_credits"] is None
            or agg["attributed_credits"] == agg["ledger_credits"]
        )
        n = agg["n_with_prediction"]
        agg["mean_abs_error_credits"] = agg["sum_abs_error_credits"] / n if n else 0.0
        agg["mean_error_credits"] = agg["sum_error_credits"] / n if n else 0.0
    return {
        "schema": 1,
        "warehouses": {name: warehouses[name] for name in sorted(warehouses)},
        "top_savings": store.top_savings(),
        "top_regret": store.top_regret(),
    }


def attribution(
    path: str, out: IO[str], top: int = 10, out_path: str | None = None
) -> int:
    """Savings attribution + calibration; exit 1 when conservation fails."""
    try:
        store = _store_from_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _attribution_report(store)
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
        rows = report[key][: max(top, 0)]
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
    if out_path is not None:
        pathlib.Path(out_path).write_text(dumps_json(report), encoding="utf-8")
        print(f"attribution report: {out_path}", file=out)
    if failed:
        print(
            f"error: attribution does not conserve ledger credits for: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def store_run(args: argparse.Namespace, out: IO[str]) -> int:
    """Dispatch the ``obs store`` subcommand family."""
    if args.store_command == "ingest":
        store = FleetStore()
        labels: dict[str, int] = {}
        try:
            for trace_path in args.traces:
                stem = pathlib.Path(trace_path).stem
                n = labels.get(stem, 0)
                labels[stem] = n + 1
                run_label = stem if n == 0 else f"{stem}#{n}"
                ingested = store.ingest_trace_records(_load(trace_path), run=run_label)
                print(f"ingested {trace_path}: {ingested} rows as run {run_label!r}", file=out)
        except (OSError, ValueError, ObservabilityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        store.dump(args.out)
        print(
            f"store: {args.out} ({len(store)} rows, {len(store.runs())} runs, "
            f"{len(store.warehouses())} warehouses)",
            file=out,
        )
        return 0
    try:
        store = FleetStore.load(args.store)
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.store_command == "query":
        if args.during_alerts is not None:
            rows = store.decisions_during_alerts(prefix=args.during_alerts or None)
        else:
            rows = store.query(
                warehouse=args.warehouse,
                kind=args.kind,
                since=args.since,
                until=args.until,
                run=args.run,
            )
        for row in rows[: max(args.limit, 0)]:
            print(json.dumps(row, sort_keys=True, separators=(",", ":")), file=out)
        print(
            f"{len(rows)} rows ({min(len(rows), max(args.limit, 0))} shown)",
            file=out,
        )
        return 0
    if args.store_command == "rollup":
        try:
            rows = store.rollup(bucket_seconds=args.bucket)
        except ObservabilityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
    # top
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


def smoke(seed: int, out_path: str, out: IO[str]) -> int:
    """Run the smoke scenario traced; write trace JSONL + metrics JSON."""
    # Imported here: the experiments stack pulls in the whole library, and
    # `obs summarize`/`obs diff` should stay usable without that cost.
    from repro import obs
    from repro.experiments.runner import run_before_after
    from repro.experiments.scenarios import smoke_scenario

    scenario = smoke_scenario(seed=seed)
    with obs.observed(manifest=scenario.manifest()) as rec:
        result, _ = run_before_after(scenario)
    trace_path = pathlib.Path(out_path)
    rec.sink.dump(trace_path)
    metrics_path = trace_path.with_name(trace_path.name + ".metrics.json")
    metrics_path.write_text(rec.metrics.to_json(), encoding="utf-8")
    series_path = trace_path.with_name(trace_path.name + ".series.json")
    series_path.write_text(rec.series.to_json(), encoding="utf-8")
    alerts_path = trace_path.with_name(trace_path.name + ".alerts.json")
    alerts_path.write_text(rec.alerts.to_json(), encoding="utf-8")
    print(
        f"smoke run: scenario={scenario.name} seed={seed} "
        f"savings={result.savings_fraction:+.1%}",
        file=out,
    )
    print(f"trace:   {trace_path} ({len(rec.sink)} records)", file=out)
    print(f"metrics: {metrics_path} ({len(rec.metrics)} series)", file=out)
    print(f"series:  {series_path} ({len(rec.series)} bucketed series)", file=out)
    print(f"alerts:  {alerts_path} ({len(rec.alerts)} lifecycle events)", file=out)
    return summarize(str(trace_path), out)


def campaign(args: argparse.Namespace, out: IO[str]) -> int:
    """Run a streamed smoke fleet; write the merged trace and sidecars.

    The fleet's observability leaves the workers as bounded payload chunks
    (docs/OBSERVABILITY.md §v4): spill-bounded sinks, spooled chunk files,
    per-job heartbeats.  The merged trace and its metrics/series/alerts/
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
    trace_path = pathlib.Path(args.out)
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
        rec.sink.dump(trace_path)
        for suffix, text in (
            (".metrics.json", rec.metrics.to_json()),
            (".series.json", rec.series.to_json()),
            (".alerts.json", rec.alerts.to_json()),
        ):
            trace_path.with_name(trace_path.name + suffix).write_text(
                text, encoding="utf-8"
            )
    summary = obs_stream.campaign_summary(stream_dir / "progress")
    summary_path = trace_path.with_name(trace_path.name + ".campaign.json")
    summary_path.write_text(dumps_json(summary), encoding="utf-8")
    probe.sample_rss("parent")
    resources_path = trace_path.with_name(trace_path.name + ".resources.json")
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
        print(f"error: no such progress directory: {progress}", file=sys.stderr)
        return 2
    polls = max(args.max_polls, 1) if args.follow else 1
    summary = obs_stream.campaign_summary(progress)
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
    try:
        store = FleetStore.load(args.store)
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: unreadable baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
    elif args.baseline is not None:
        print(f"error: no such baseline: {baseline_path}", file=sys.stderr)
        return 2
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


def run(args: argparse.Namespace, out: IO[str] | None = None) -> int:
    """Execute a parsed ``obs`` invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    if args.obs_command == "summarize":
        return summarize(args.trace, out, fmt=args.fmt)
    if args.obs_command == "diff":
        return diff(args.trace_a, args.trace_b, out)
    if args.obs_command == "profile":
        return profile(
            args.trace, out, top=args.top, diff_path=args.diff, folded=args.folded
        )
    if args.obs_command == "slo":
        return slo(args.trace, out, series_path=args.series, budget_per_hour=args.budget)
    if args.obs_command == "alerts":
        return alerts(args.trace, out)
    if args.obs_command == "report":
        return report(args.trace, out, out_path=args.out, budget_per_hour=args.budget)
    if args.obs_command == "decisions":
        return decisions(
            args.trace, out, warehouse=args.warehouse, kind=args.kind, top=args.top
        )
    if args.obs_command == "attribution":
        return attribution(args.trace, out, top=args.top, out_path=args.out)
    if args.obs_command == "store":
        return store_run(args, out)
    if args.obs_command == "campaign":
        return campaign(args, out)
    if args.obs_command == "watch":
        return watch(args, out)
    if args.obs_command == "watchtower":
        return watchtower(args, out)
    return smoke(args.seed, args.out, out)
