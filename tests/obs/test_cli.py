"""Exit-code and output contract of the `repro.cli obs` subcommands."""

import hashlib
import io
import json
import pathlib

import pytest

from repro.cli import build_parser
from repro.common.cli import run_command
from repro.obs import Recorder, RunManifest


def obs(*argv, out=None):
    """Run ``repro.cli obs <argv>`` through the real parser and exit-code
    boundary; returns the exit code (stdout lands in ``out``)."""
    args = build_parser().parse_args(["obs", *map(str, argv)])
    return run_command(args, out if out is not None else io.StringIO())


def _write_trace(path, n_spans=2, n_events=1, extra_attr=None):
    rec = Recorder(manifest=RunManifest(scenario="t", seed=1, config_hash="ab"))
    for i in range(n_spans):
        with rec.span("work", float(i)) as sp:
            if extra_attr:
                sp.set(**extra_attr)
    for i in range(n_events):
        rec.emit("ping", float(i))
    rec.sink.dump(path)
    return path


class TestSummarize:
    def test_trace_with_spans_exits_zero(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        text = out.getvalue()
        assert "scenario=t" in text
        assert "2 spans" in text
        assert "work" in text

    def test_zero_spans_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", n_spans=0)
        assert obs("summarize", path) == 1

    def test_missing_file_exits_two(self, tmp_path):
        assert obs("summarize", tmp_path / "absent.jsonl") == 2

    def test_garbage_exits_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        assert obs("summarize", path) == 2

    def test_non_record_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_type_key": 1}\n')
        assert obs("summarize", path) == 2


def _write_observed_run(tmp_path, degraded=False):
    """A tiny run with sidecars, like `obs smoke` writes them."""
    rec = Recorder(manifest=RunManifest(scenario="t", seed=1, config_hash="ab"))
    gauge = rec.gauge("repro.monitor.wh.latency_ratio")
    for i in range(8):
        with rec.span("tick", float(i * 300)):
            gauge.set(9.0 if degraded else 1.0, time=float(i * 300))
    if degraded:
        rec.alerts.fire("optimizer.backoff.wh", 300.0, reason="latency")
        rec.alerts.resolve("optimizer.backoff.wh", 900.0)
    path = tmp_path / "t.jsonl"
    rec.sink.dump(path)
    (tmp_path / "t.jsonl.metrics.json").write_text(rec.metrics.to_json())
    (tmp_path / "t.jsonl.series.json").write_text(rec.series.to_json())
    return path


class TestSummarizeMetricsSidecar:
    def test_metrics_snapshot_rendered_when_sidecar_present(self, tmp_path):
        path = _write_observed_run(tmp_path)
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        text = out.getvalue()
        assert "metrics snapshot:" in text
        assert "gauge extremes:" in text
        assert "repro.monitor.wh.latency_ratio" in text
        assert "min=1" in text

    def test_no_sidecar_keeps_summary_quiet(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        assert "metrics snapshot" not in out.getvalue()

    def test_corrupt_sidecar_does_not_break_summary(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        (tmp_path / "t.jsonl.metrics.json").write_text("not json")
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        assert "metrics snapshot" not in out.getvalue()

    def test_v1_sidecar_without_gauge_extremes_tolerated(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        snapshot = {"repro.test.depth": {"kind": "gauge", "value": 3.0, "updates": 1}}
        (tmp_path / "t.jsonl.metrics.json").write_text(json.dumps(snapshot))
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        assert "min=3 max=3" in out.getvalue()


class TestDiff:
    def test_identical_exits_zero(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl")
        b = _write_trace(tmp_path / "b.jsonl")
        out = io.StringIO()
        assert obs("diff", a, b, out=out) == 0
        assert "identical" in out.getvalue()

    def test_count_difference_reported(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", n_spans=2)
        b = _write_trace(tmp_path / "b.jsonl", n_spans=3)
        out = io.StringIO()
        assert obs("diff", a, b, out=out) == 1
        assert "span 'work': 2 vs 3" in out.getvalue()

    def test_attr_difference_pinpoints_first_record(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", extra_attr={"x": 1})
        b = _write_trace(tmp_path / "b.jsonl", extra_attr={"x": 2})
        out = io.StringIO()
        assert obs("diff", a, b, out=out) == 1
        assert "first differing record: line 2" in out.getvalue()

    def test_missing_file_exits_two(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl")
        assert obs("diff", a, tmp_path / "absent.jsonl") == 2


class TestProfile:
    def test_profiles_spans_and_critical_path(self, tmp_path):
        path = _write_observed_run(tmp_path)
        out = io.StringIO()
        assert obs("profile", path, out=out) == 0
        text = out.getvalue()
        assert "profile: 8 spans" in text
        assert "tick" in text
        assert "critical path" in text

    def test_diff_against_second_trace(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", n_spans=2)
        b = _write_trace(tmp_path / "b.jsonl", n_spans=3)
        out = io.StringIO()
        assert obs("profile", a, "--diff", b, out=out) == 0
        assert "count      2 -> 3" in out.getvalue()

    def test_zero_spans_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", n_spans=0)
        assert obs("profile", path) == 1

    def test_missing_file_exits_two(self, tmp_path):
        assert obs("profile", tmp_path / "absent.jsonl") == 2


class TestSlo:
    def test_healthy_run_evaluates_and_exits_zero(self, tmp_path):
        path = _write_observed_run(tmp_path)
        out = io.StringIO()
        assert obs("slo", path, out=out) == 0
        text = out.getvalue()
        assert "latency-ratio.wh" in text
        assert "compliance=100.0%" in text
        assert "ok=True" in text

    def test_violations_reported_but_still_exit_zero(self, tmp_path):
        path = _write_observed_run(tmp_path, degraded=True)
        out = io.StringIO()
        assert obs("slo", path, out=out) == 0
        text = out.getvalue()
        assert "violation" in text
        assert "ok=False" in text

    def test_no_series_sidecar_exits_two(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        assert obs("slo", path) == 2

    def test_no_evaluable_slo_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        snapshot = {
            "repro.engine.events": {
                "kind": "counter",
                "bucket_seconds": 300.0,
                "buckets": [[0, 1.0, 1.0, 1.0, 1.0, 1]],
            }
        }
        (tmp_path / "t.jsonl.series.json").write_text(json.dumps(snapshot))
        assert obs("slo", path) == 1


class TestAlerts:
    def test_timeline_rendered(self, tmp_path):
        path = _write_observed_run(tmp_path, degraded=True)
        out = io.StringIO()
        assert obs("alerts", path, out=out) == 0
        text = out.getvalue()
        assert "FIRE" in text
        assert "RESOLVE" in text
        assert "optimizer.backoff.wh" in text
        assert "0 still active" in text

    def test_quiet_run_exits_zero(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        out = io.StringIO()
        assert obs("alerts", path, out=out) == 0
        assert "no alert events" in out.getvalue()

    def test_missing_file_exits_two(self, tmp_path):
        assert obs("alerts", tmp_path / "absent.jsonl") == 2


class TestReport:
    def test_renders_markdown_with_all_sections(self, tmp_path):
        path = _write_observed_run(tmp_path, degraded=True)
        out = io.StringIO()
        assert obs("report", path, out=out) == 0
        markdown = (tmp_path / "t.jsonl.report.md").read_text()
        assert markdown.startswith("# Run report")
        assert "## Alert timeline" in markdown
        assert "## SLOs" in markdown
        assert "## Span profile" in markdown
        assert "`optimizer.backoff.wh`" in markdown

    def test_without_series_sidecar_omits_slo_section(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        target = tmp_path / "custom.md"
        assert obs("report", path, "--out", target) == 0
        markdown = target.read_text()
        assert "## SLOs" not in markdown
        assert "## Span profile" in markdown

    def test_missing_trace_exits_two(self, tmp_path):
        assert obs("report", tmp_path / "absent.jsonl") == 2


class TestSummarizeAlertsSidecar:
    def test_alerts_sidecar_rendered_when_present(self, tmp_path):
        path = _write_observed_run(tmp_path, degraded=True)
        rec = Recorder(manifest=RunManifest(scenario="t", seed=1, config_hash="ab"))
        rec.alerts.fire("optimizer.backoff.wh", 300.0, reason="latency")
        rec.alerts.resolve("optimizer.backoff.wh", 900.0)
        rec.alerts.fire("monitor.slo_breach.wh", 1200.0, severity="critical")
        (tmp_path / "t.jsonl.alerts.json").write_text(rec.alerts.to_json())
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        text = out.getvalue()
        assert "alerts sidecar: 3 lifecycle events (2 fires, 1 resolves)" in text
        assert "top alerts by fires:" in text
        assert "still active at end of run: monitor.slo_breach.wh (critical)" in text

    def test_no_sidecar_keeps_summary_quiet(self, tmp_path):
        path = _write_observed_run(tmp_path)
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        assert "alerts sidecar" not in out.getvalue()

    def test_corrupt_sidecar_does_not_break_summary(self, tmp_path):
        path = _write_observed_run(tmp_path)
        (tmp_path / "t.jsonl.alerts.json").write_text("not json")
        out = io.StringIO()
        assert obs("summarize", path, out=out) == 0
        assert "alerts sidecar" not in out.getvalue()


def _write_provenance_trace(path, conserve=True, warehouse="WH"):
    """A trace with provenance events; optionally break conservation."""
    savings = 0.1 + 0.2
    rec = Recorder(manifest=RunManifest(scenario="t", seed=1, config_hash="ab"))
    rec.emit(
        "provenance.decision", 600.0, warehouse=warehouse, seq=0, kind="learned",
        reason_code="learned.apply", target="cfg-a", interval=600.0,
    )
    rec.emit(
        "provenance.outcome", 1200.0, warehouse=warehouse, seq=0,
        window_start=600.0, window_end=1200.0, realized_credits=0.6,
        predicted_credits=0.5, error_credits=0.1, realized_p99=4.0,
        realized_queries=3, applied=True, apply_error="",
    )
    share = savings if conserve else savings / 2
    rec.emit(
        "provenance.attribution", 1800.0, warehouse=warehouse,
        window_start=0.0, window_end=1800.0, savings_credits=savings,
        shares=[{"decision_seq": 0, "overlap_seconds": 600.0, "credits": share}],
    )
    rec.emit(
        "optimizer.savings_report", 1800.0, warehouse=warehouse,
        savings_fraction=0.1, savings_credits=savings,
        window_start=0.0, window_end=1800.0,
    )
    rec.sink.dump(path)
    return path


class TestDecisions:
    def test_timeline_and_reason_codes_rendered(self, tmp_path):
        path = _write_provenance_trace(tmp_path / "t.jsonl")
        out = io.StringIO()
        assert obs("decisions", path, out=out) == 0
        text = out.getvalue()
        assert "learned.apply" in text
        assert "cfg-a" in text
        assert "realized=0.6000cr" in text

    def test_no_provenance_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        assert obs("decisions", path) == 1

    def test_missing_file_exits_two(self, tmp_path):
        assert obs("decisions", tmp_path / "absent.jsonl") == 2


class TestAttribution:
    def test_conserved_trace_exits_zero(self, tmp_path):
        path = _write_provenance_trace(tmp_path / "t.jsonl")
        out = io.StringIO()
        assert obs("attribution", path, out=out) == 0
        text = out.getvalue()
        assert "conserved" in text
        assert "VIOLATED" not in text

    def test_tampered_shares_exit_one(self, tmp_path):
        path = _write_provenance_trace(tmp_path / "t.jsonl", conserve=False)
        out = io.StringIO()
        assert obs("attribution", path, out=out) == 1
        assert "VIOLATED" in out.getvalue()

    def test_no_attribution_events_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        assert obs("attribution", path) == 1

    def test_out_writes_byte_stable_report(self, tmp_path):
        path = _write_provenance_trace(tmp_path / "t.jsonl")
        target = tmp_path / "attribution.json"
        assert obs("attribution", path, "--out", target) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1
        assert payload["warehouses"]["WH"]["conserved"] is True
        assert target.read_text().endswith("\n")


class TestStoreSubcommands:
    def _ingest(self, tmp_path):
        trace = _write_provenance_trace(tmp_path / "t.jsonl")
        store_path = tmp_path / "store.jsonl"
        out = io.StringIO()
        assert obs("store", "ingest", trace, "--out", store_path, out=out) == 0
        return store_path, out.getvalue()

    def test_ingest_writes_store(self, tmp_path):
        store_path, text = self._ingest(tmp_path)
        assert "ingested" in text
        assert "run 't'" in text
        rows = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert {row["kind"] for row in rows} >= {"manifest", "decision"}

    def test_query_filters_and_counts(self, tmp_path):
        store_path, _ = self._ingest(tmp_path)
        out = io.StringIO()
        assert obs("store", "query", store_path, "--kind", "decision", out=out) == 0
        text = out.getvalue()
        assert "learned.apply" in text
        assert "1 row" in text

    def test_rollup_renders_table(self, tmp_path):
        store_path, _ = self._ingest(tmp_path)
        out = io.StringIO()
        assert obs("store", "rollup", store_path, "--bucket", "3600", out=out) == 0
        assert "WH" in out.getvalue()

    def test_top_renders_both_rankings(self, tmp_path):
        store_path, _ = self._ingest(tmp_path)
        out = io.StringIO()
        assert obs("store", "top", store_path, "--k", "5", out=out) == 0
        text = out.getvalue()
        assert "savings" in text
        assert "regret" in text


class TestMainCliWiring:
    def test_obs_subcommand_routes(self, tmp_path, capsys):
        from repro.cli import main

        path = _write_trace(tmp_path / "t.jsonl")
        assert main(["obs", "summarize", str(path)]) == 0
        assert "2 spans" in capsys.readouterr().out

    def test_obs_requires_subcommand(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["obs"])


class TestSummarizeJson:
    def test_json_format_is_byte_stable_and_machine_readable(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        out_a, out_b = io.StringIO(), io.StringIO()
        assert obs("summarize", path, "--format", "json", out=out_a) == 0
        assert obs("summarize", path, "--format", "json", out=out_b) == 0
        assert out_a.getvalue() == out_b.getvalue()
        payload = json.loads(out_a.getvalue())
        assert payload["schema"] == 1
        assert payload["n_spans"] == 2
        assert payload["spans_by_name"] == {"work": 2}
        assert payload["manifests"][0]["scenario"] == "t"
        assert payload["sidecars"]["metrics"] is False
        # The shared serializer's shape: indented, sorted, trailing newline.
        assert out_a.getvalue().endswith("}\n")
        assert '"events_by_name"' in out_a.getvalue()

    def test_json_format_sees_sidecars(self, tmp_path):
        path = _write_observed_run(tmp_path)
        out = io.StringIO()
        assert obs("summarize", path, "--format", "json", out=out) == 0
        assert json.loads(out.getvalue())["sidecars"]["metrics"] is True

    def test_json_zero_spans_still_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", n_spans=0)
        out = io.StringIO()
        assert obs("summarize", path, "--format", "json", out=out) == 1
        assert json.loads(out.getvalue())["n_spans"] == 0


class TestProfileFolded:
    DATA = pathlib.Path(__file__).parent / "data"

    def test_golden_folded_output(self):
        out = io.StringIO()
        trace = self.DATA / "golden_trace.jsonl"
        assert obs("profile", trace, "--folded", out=out) == 0
        golden = (self.DATA / "golden_profile.folded").read_text(encoding="utf-8")
        assert out.getvalue() == golden

    def test_folded_zero_spans_exits_one(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl", n_spans=0)
        assert obs("profile", path, "--folded") == 1

    def test_folded_lines_are_stack_weight_pairs(self, tmp_path):
        path = _write_observed_run(tmp_path)
        out = io.StringIO()
        assert obs("profile", path, "--folded", out=out) == 0
        for line in out.getvalue().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) >= 0


class TestWatchtowerCli:
    def _store_path(self, tmp_path):
        trace = _write_provenance_trace(tmp_path / "t.jsonl")
        store_path = tmp_path / "store.jsonl"
        assert obs("store", "ingest", trace, "--out", store_path) == 0
        return store_path

    def test_bless_then_gate_ok(self, tmp_path):
        store_path = self._store_path(tmp_path)
        out = io.StringIO()
        assert obs("watchtower", store_path, "--update-baseline", out=out) == 0
        assert "blessed" in out.getvalue()
        assert (tmp_path / "store.jsonl.baseline.json").is_file()
        out = io.StringIO()
        assert obs("watchtower", store_path, out=out) == 0
        assert "verdict: OK" in out.getvalue()

    def test_regressed_store_exits_one(self, tmp_path):
        good = self._store_path(tmp_path)
        baseline = tmp_path / "blessed.json"
        assert obs(
            "watchtower", good, "--update-baseline", "--baseline", baseline
        ) == 0
        # A differently-named warehouse regresses (missing from the store).
        bad_trace = _write_provenance_trace(
            tmp_path / "bad.jsonl", warehouse="OTHER_WH"
        )
        bad_store = tmp_path / "bad_store.jsonl"
        assert obs("store", "ingest", bad_trace, "--out", bad_store) == 0
        out = io.StringIO()
        assert obs("watchtower", bad_store, "--baseline", baseline, out=out) == 1
        assert "missing_warehouse" in out.getvalue()

    def test_json_and_markdown_renders(self, tmp_path):
        store_path = self._store_path(tmp_path)
        out = io.StringIO()
        assert obs("watchtower", store_path, "--format", "json", out=out) == 0
        assert json.loads(out.getvalue())["ok"] is True
        report_path = tmp_path / "tower.md"
        assert obs(
            "watchtower", store_path, "--format", "markdown", "--out", report_path
        ) == 0
        assert report_path.read_text(encoding="utf-8").startswith(
            "# Fleet watchtower"
        )

    def test_missing_store_exits_two(self, tmp_path):
        assert obs("watchtower", tmp_path / "absent.jsonl") == 2

    def test_missing_explicit_baseline_exits_two(self, tmp_path):
        store_path = self._store_path(tmp_path)
        assert obs(
            "watchtower", store_path, "--baseline", tmp_path / "nope.json"
        ) == 2


class TestWatchCli:
    def _watch(self, directory, *flags, out=None):
        return obs("watch", directory, "--interval", "0.01", *flags, out=out)

    def _beats(self, progress, complete=True):
        from repro.obs.stream import write_heartbeat

        write_heartbeat(progress, 0, status="start", scenario="s", protocol="p")
        write_heartbeat(
            progress, 0, status="chunk", seq=0, records=5, spans=4,
            events=1, sim_time=60.0,
        )
        if complete:
            write_heartbeat(
                progress, 0, status="done", chunks=1, records=5, spans=4,
                events=1, sim_time=60.0,
            )

    def test_renders_progress_table(self, tmp_path):
        progress = tmp_path / "progress"
        self._beats(progress)
        out = io.StringIO()
        assert self._watch(tmp_path, out=out) == 0
        text = out.getvalue()
        assert "done" in text
        assert "campaign complete" in text
        # Two renders of the same heartbeats are byte-identical.
        out2 = io.StringIO()
        assert self._watch(tmp_path, out=out2) == 0
        assert out2.getvalue() == text

    def test_accepts_progress_dir_directly_and_writes_summary(self, tmp_path):
        progress = tmp_path / "progress"
        self._beats(progress)
        summary_path = tmp_path / "summary.json"
        assert self._watch(progress, "--summary", summary_path) == 0
        assert json.loads(summary_path.read_text())["complete"] is True

    def test_follow_terminates_on_incomplete_campaign(self, tmp_path):
        progress = tmp_path / "progress"
        self._beats(progress, complete=False)
        out = io.StringIO()
        assert self._watch(tmp_path, "--follow", "--max-polls", "2", out=out) == 0
        assert "in flight" in out.getvalue()

    def test_missing_dir_exits_two(self, tmp_path):
        assert self._watch(tmp_path / "absent") == 2

    def test_empty_dir_exits_one(self, tmp_path):
        assert self._watch(tmp_path) == 1


class TestCampaignCli:
    def test_streamed_campaign_writes_all_sidecars(self, tmp_path):
        out = io.StringIO()
        assert obs(
            "campaign", "--scenarios", "1", "--seed", "123", "--workers", "0",
            "--out", tmp_path / "c.jsonl",
            "--chunk-events", "200", "--spill-records", "300",
            out=out,
        ) == 0
        assert "campaign: 1 scenario(s)" in out.getvalue()
        for suffix in (
            "", ".metrics.json", ".series.json", ".alerts.json",
            ".campaign.json", ".resources.json",
        ):
            assert (tmp_path / f"c.jsonl{suffix}").is_file(), suffix
        summary = json.loads((tmp_path / "c.jsonl.campaign.json").read_text())
        assert summary["complete"] is True
        resources = json.loads((tmp_path / "c.jsonl.resources.json").read_text())
        assert resources["schema"] == 1
        # The watch view over the finished campaign renders and exits 0.
        assert obs(
            "watch", tmp_path / "c.jsonl.stream", "--interval", "0.01",
            "--max-polls", "1",
        ) == 0


class TestMalformedInputs:
    """Bad input ends in exit 2 with ``error:`` (or a skipped sidecar
    section), never a traceback that would read as exit 1."""

    @pytest.mark.parametrize(
        "argv, files, code",
        [
            (["summarize", "{t}"], {"t.jsonl.metrics.json": '{"x": {"kind": "counter"}}'}, 0),
            (["summarize", "{t}"], {"t.jsonl.metrics.json": '{"x": 1}'}, 0),
            (["summarize", "{t}"], {"t.jsonl.alerts.json": '{"history": [1]}'}, 0),
            (["slo", "{t}", "--series", "{d}/s.json"], {"s.json": '{"a": 1}'}, 2),
            (
                ["watchtower", "{d}/store.jsonl", "--baseline", "{d}/b.json"],
                {"store.jsonl": "", "b.json": "[1]"},
                2,
            ),
            (["profile", "{d}/bad.jsonl"], {"bad.jsonl": '{"type": "span"}\n'}, 2),
        ],
    )
    def test_never_a_traceback(self, tmp_path, capsys, argv, files, code):
        trace = _write_trace(tmp_path / "t.jsonl")
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = io.StringIO()
        assert obs(*(a.format(t=trace, d=tmp_path) for a in argv), out=out) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert "2 spans" in out.getvalue()
            assert "sidecar" not in out.getvalue()
            assert "metrics snapshot" not in out.getvalue()


class TestNegativeCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decisions", "t.jsonl", "--top", "-1"],
            ["attribution", "t.jsonl", "--top", "-1"],
            ["profile", "t.jsonl", "--top", "-1"],
            ["store", "query", "s.jsonl", "--limit", "-1"],
            ["store", "top", "s.jsonl", "--k", "-1"],
        ],
    )
    def test_rejected_at_parse_time(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["obs", *argv])
        assert exc.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err


#: sha256 of each provenance-derived output of one traced ``chaos_smoke``
#: run (default seed).  The live summary, the fleet store and the run
#: report share one calibration fold; these pins hold its bytes in place.
CHAOS_OUTPUT_DIGESTS = {
    "report": "bd26fe173af4d71e7959efc99de3ad467407a822a04fc77d730fd5d434a9bf28",
    "alerts": "da470548be1ea2344a054c51972be0eefa368035d023727b6b3a6cf348c9902d",
    "decisions": "a751bcf8e9eec718f6b465ffce7b8a7701810c9c1883274b762c2605475d9fe6",
    "attribution": "de4ee25a33bf93fef3746c4c582a662ab524923a65f9c55028e4abf2fb53dab3",
    "store": "70faa01b9ef92ddbbb0d6d78a4b70c6ad584540c5ab20a0d4e8cd8331c177f87",
}


@pytest.fixture(scope="module")
def chaos_outputs(tmp_path_factory):
    """Every exported view of one traced chaos run, as bytes."""
    d = tmp_path_factory.mktemp("chaos")
    trace = d / "chaos-trace.jsonl"
    args = build_parser().parse_args(
        ["faults", "run", "chaos_smoke", "--trace", str(trace)]
    )
    assert run_command(args, io.StringIO()) == 0
    outputs = {}
    assert obs("report", trace) == 0
    outputs["report"] = (d / "chaos-trace.jsonl.report.md").read_bytes()
    for name in ("alerts", "decisions"):
        out = io.StringIO()
        assert obs(name, trace, out=out) == 0
        outputs[name] = out.getvalue().encode()
    assert obs("attribution", trace, "--out", d / "attribution.json") == 0
    outputs["attribution"] = (d / "attribution.json").read_bytes()
    assert obs("store", "ingest", trace, "--out", d / "store.jsonl") == 0
    outputs["store"] = (d / "store.jsonl").read_bytes()
    return outputs


class TestChaosOutputDigests:
    @pytest.mark.parametrize("name", sorted(CHAOS_OUTPUT_DIGESTS))
    def test_output_bytes_pinned(self, chaos_outputs, name):
        digest = hashlib.sha256(chaos_outputs[name]).hexdigest()
        assert digest == CHAOS_OUTPUT_DIGESTS[name], name
