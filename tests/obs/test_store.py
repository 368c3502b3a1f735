"""FleetStore: ingestion, indexed queries, rollups, and byte-stable merge."""

import pytest

from repro import obs
from repro.experiments.runner import run_before_after
from repro.experiments.scenarios import chaos_smoke_scenario, smoke_scenario
from repro.obs import Recorder, RunManifest
from repro.obs.metrics import ObservabilityError
from repro.obs.store import FleetStore


def _trace_records(warehouse="WH", base=0.0, savings=1.5):
    """A miniature trace: two decisions, one sealed, one attribution."""
    rec = Recorder(manifest=RunManifest(scenario="t", seed=1, config_hash="ab"))
    rec.emit(
        "provenance.decision",
        base + 600.0,
        warehouse=warehouse,
        seq=0,
        kind="learned",
        reason_code="learned.apply",
        target="cfg-a",
        interval=600.0,
    )
    rec.emit(
        "alert.fire", base + 700.0, alert="optimizer.backoff.wh",
        severity="warning", warehouse=warehouse,
    )
    rec.emit(
        "provenance.decision",
        base + 1200.0,
        warehouse=warehouse,
        seq=1,
        kind="hold",
        reason_code="hold.cooldown",
        target="cfg-a",
        interval=600.0,
    )
    rec.emit(
        "provenance.outcome",
        base + 1200.0,
        warehouse=warehouse,
        seq=0,
        window_start=base + 600.0,
        window_end=base + 1200.0,
        realized_credits=0.6,
        predicted_credits=0.5,
        error_credits=0.1,
        realized_p99=4.0,
        realized_queries=3,
        applied=True,
        apply_error="",
    )
    rec.emit(
        "alert.resolve", base + 1300.0, alert="optimizer.backoff.wh",
        duration=600.0, warehouse=warehouse,
    )
    rec.emit(
        "provenance.attribution",
        base + 1800.0,
        warehouse=warehouse,
        window_start=base,
        window_end=base + 1800.0,
        savings_credits=savings,
        shares=[
            {"decision_seq": 0, "overlap_seconds": 600.0, "credits": savings / 3},
            {"decision_seq": 1, "overlap_seconds": 600.0,
             "credits": savings - savings / 3},
        ],
    )
    rec.emit(
        "optimizer.savings_report", base + 1800.0, warehouse=warehouse,
        savings_fraction=0.1, savings_credits=savings,
        window_start=base, window_end=base + 1800.0,
    )
    rec.emit("optimizer.tick_noise", base + 1800.0, warehouse=warehouse)  # skipped
    return rec.sink.records


def _store(**kw):
    store = FleetStore()
    store.ingest_trace_records(_trace_records(**kw), run="r1")
    return store


class TestIngestion:
    def test_counts_and_kinds(self):
        store = _store()
        # manifest + 2 decisions + outcome + 2 alerts + attribution + report;
        # the unknown event is skipped.
        assert len(store) == 8
        kinds = {row["kind"] for row in store.rows}
        assert kinds == {
            "manifest", "decision", "outcome", "alert_fire",
            "alert_resolve", "attribution", "savings_report",
        }

    def test_manifest_row_carries_run_identity(self):
        store = _store()
        [manifest] = store.query(kind="manifest")
        assert manifest["data"]["scenario"] == "t"
        assert manifest["data"]["seed"] == 1

    def test_append_validates_row_shape(self):
        with pytest.raises(ObservabilityError, match="missing 'warehouse'"):
            FleetStore().append({"run": "r", "kind": "decision", "time": 0.0})


class TestQueries:
    def test_filters_compose(self):
        store = _store()
        store.ingest_trace_records(
            _trace_records(warehouse="OTHER", base=36000.0), run="r2"
        )
        assert len(store.query(kind="decision")) == 4
        assert len(store.query(kind="decision", warehouse="WH")) == 2
        assert len(store.query(kind="decision", run="r2")) == 2
        assert len(store.query(kind="decision", since=36000.0)) == 2
        assert len(store.query(kind="decision", until=36000.0)) == 2
        assert store.runs() == ["r1", "r2"]
        assert store.warehouses() == ["OTHER", "WH"]

    def test_decisions_join_their_outcome(self):
        rows = _store().decisions()
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[0]["outcome"]["realized_credits"] == 0.6
        assert rows[1]["outcome"] is None
        [held] = _store().decisions(decision_kind="hold")
        assert held["reason_code"] == "hold.cooldown"

    def test_alert_windows_pair_within_runs(self):
        store = _store()
        [window] = store.alert_windows()
        assert window["alert"] == "optimizer.backoff.wh"
        assert (window["start"], window["end"]) == (700.0, 1300.0)
        assert store.alert_windows(prefix="monitor.") == []

    def test_decisions_during_alerts_overlap_join(self):
        hits = _store().decisions_during_alerts()
        # Decision 0 governs [600, 1200) ∩ alert [700, 1300) — overlaps.
        # Decision 1 governs [1200, 1800) ∩ [700, 1300) — overlaps too.
        assert [h["seq"] for h in hits] == [0, 1]
        assert hits[0]["alerts"] == ["optimizer.backoff.wh"]


class TestRollupsAndTopK:
    def test_rollup_sums_by_bucket(self):
        rows = _store().rollup(bucket_seconds=3600.0)
        [bucket] = rows
        assert bucket["decisions"] == {"hold": 1, "learned": 1}
        assert bucket["realized_credits"] == pytest.approx(0.6)
        assert bucket["abs_error_credits"] == pytest.approx(0.1)
        assert bucket["savings_credits"] == pytest.approx(1.5)

    def test_rollup_rejects_bad_bucket(self):
        with pytest.raises(ObservabilityError, match="positive"):
            _store().rollup(bucket_seconds=0.0)

    def test_top_savings_ranks_and_joins(self):
        rows = _store().top_savings(k=5)
        assert [r["seq"] for r in rows] == [1, 0]  # 1.0cr beats 0.5cr
        assert rows[0]["decision"]["kind"] == "hold"

    def test_top_regret_from_outcomes(self):
        [row] = _store().top_regret(k=1)
        assert row["seq"] == 0
        assert row["error_credits"] == pytest.approx(0.1)
        assert row["decision"]["reason_code"] == "learned.apply"


class TestPersistenceAndMerge:
    def test_jsonl_roundtrip_is_byte_stable(self, tmp_path):
        store = _store()
        path = tmp_path / "store.jsonl"
        store.dump(path)
        loaded = FleetStore.load(path)
        assert loaded.to_jsonl() == store.to_jsonl()
        assert loaded.rows == store.rows

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError, match="not JSON"):
            FleetStore.load(path)

    def test_merge_preserves_submission_order(self):
        a = FleetStore()
        a.ingest_trace_records(_trace_records(), run="r1")
        b = FleetStore()
        b.ingest_trace_records(_trace_records(base=36000.0), run="r2")
        merged = FleetStore()
        merged.merge(a)
        merged.merge(b)
        sequential = FleetStore()
        sequential.ingest_trace_records(_trace_records(), run="r1")
        sequential.ingest_trace_records(_trace_records(base=36000.0), run="r2")
        assert merged.to_jsonl() == sequential.to_jsonl()
        # Indexes survive the merge path, not just the rows.
        assert merged.decisions() == sequential.decisions()


class TestLiveSummaryAgreement:
    """The live summary and the store fold the same outcomes in the same
    order, so one traced run reports the same facts through both, to the
    bit."""

    @pytest.mark.parametrize(
        "factory, seed", [(chaos_smoke_scenario, 131), (smoke_scenario, 126)]
    )
    def test_summary_equals_store_facts(self, factory, seed):
        with obs.observed() as rec:
            result, _ = run_before_after(factory(seed=seed))
        store = FleetStore()
        store.ingest_trace_records(rec.sink.records, run="run")
        summary = result.attribution
        facts = store.warehouse_facts()[summary.warehouse]
        for key in (
            "n_decisions",
            "n_sealed",
            "attributed_credits",
            "mean_abs_error_credits",
        ):
            assert getattr(summary, key) == facts[key], key
