"""Determinism of the v2 observability exports: series, SLOs, alerts, profile.

Extends ``test_obs_determinism.py`` to the analysis layer added on top of
the trace: two runs of the same ``(scenario, seed)`` must export
byte-identical series buckets, SLO reports, alert events and span
profiles — so every one of them is usable as a regression oracle, not
just the raw trace.
"""

from repro import obs
from repro.experiments.runner import run_before_after
from repro.experiments.scenarios import smoke_scenario
from repro.obs import default_slos, evaluate_all, profile_records


def _traced_run(seed=123):
    scenario = smoke_scenario(seed=seed)
    with obs.observed(manifest=scenario.manifest()) as rec:
        run_before_after(scenario)
    return rec


def _alert_events(rec):
    return [
        r for r in rec.sink.records
        if r["type"] == "event" and r["name"].startswith("alert.")
    ]


def test_same_seed_runs_export_identical_series_slo_alert_bytes():
    rec_a = _traced_run()
    rec_b = _traced_run()

    assert rec_a.series.to_json() == rec_b.series.to_json()
    assert _alert_events(rec_a) == _alert_events(rec_b)

    report_a = evaluate_all(default_slos(rec_a.series), rec_a.series)
    report_b = evaluate_all(default_slos(rec_b.series), rec_b.series)
    assert report_a.to_json() == report_b.to_json()

    prof_a = profile_records(list(rec_a.sink.records))
    prof_b = profile_records(list(rec_b.sink.records))
    assert prof_a.to_json() == prof_b.to_json()


def test_smoke_run_produces_usable_analysis_artifacts():
    rec = _traced_run()

    # Non-empty series export with monitor and billing histories.
    snapshot = rec.series.snapshot()
    assert snapshot
    assert any(name.startswith("repro.monitor.") for name in snapshot)
    assert any(name.startswith("repro.billing.") for name in snapshot)

    # At least one SLO is inferable and evaluable from what was recorded.
    report = evaluate_all(default_slos(rec.series), rec.series)
    assert len(report.results) >= 1
    for result in report.results:
        assert result.buckets_evaluated > 0

    # Profile totals agree with the trace they came from.
    records = list(rec.sink.records)
    prof = profile_records(records)
    spans = [r for r in records if r["type"] == "span"]
    assert prof.n_spans == len(spans)
    assert prof.total_time == sum(r["time_end"] - r["time"] for r in spans)
    assert sum(s.count for s in prof.spans.values()) == prof.n_spans


def test_series_buckets_reflect_sim_time_not_emission_count():
    rec = _traced_run()
    events = rec.series.get("repro.engine.events")
    assert events is not None
    indices = [index for index, _ in events.points("count")]
    # The smoke scenario simulates 2 days = 576 five-minute buckets; the
    # recorded history must stay inside that range and cover a real spread.
    assert 0 <= indices[0] and indices[-1] <= (2 * 24 * 12)
    assert len(indices) > 10
