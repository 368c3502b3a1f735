"""Byte-identity of provenance, store and attribution exports.

ISSUE 7's acceptance bar: two same-seed runs produce byte-identical
provenance events, ``FleetStore`` JSONL and attribution reports, and a
store fed by ``run_fleet(workers=N)`` holds exactly the same bytes as one
fed by the serial run.  Provenance rides the ordinary trace stream, so
this is what makes the audit trail trustworthy as a regression artifact.
"""

from repro import obs
from repro.experiments.runner import run_before_after, run_fleet
from repro.experiments.scenarios import smoke_scenario
from repro.obs.store import FleetStore
from repro.portal.export import to_json

SEEDS = (123, 321, 555)
WORKERS = 2

PROVENANCE_EVENTS = {
    "provenance.decision",
    "provenance.outcome",
    "provenance.attribution",
}


def _traced_run(seed):
    scenario = smoke_scenario(seed=seed)
    with obs.observed(manifest=scenario.manifest()) as rec:
        run_before_after(scenario)
    return rec.sink.records


def _provenance_lines(records):
    import json

    return [
        json.dumps(r, sort_keys=True, separators=(",", ":"))
        for r in records
        if r.get("type") == "event" and r.get("name") in PROVENANCE_EVENTS
    ]


def _store_for(records, run="run"):
    store = FleetStore()
    store.ingest_trace_records(records, run=run)
    return store


class TestSameSeedByteIdentity:
    def test_provenance_events_identical(self):
        lines_a = _provenance_lines(_traced_run(seed=123))
        lines_b = _provenance_lines(_traced_run(seed=123))
        assert lines_a  # the trace actually carries provenance
        assert lines_a == lines_b

    def test_store_and_attribution_report_identical(self):
        records_a = _traced_run(seed=123)
        records_b = _traced_run(seed=123)
        store_a = _store_for(records_a)
        store_b = _store_for(records_b)
        assert store_a.to_jsonl() == store_b.to_jsonl()
        report_a = to_json(store_a.attribution_report())
        report_b = to_json(store_b.attribution_report())
        assert report_a == report_b
        assert '"conserved": true' in report_a


class TestParallelStoreIdentity:
    def test_workers_n_store_matches_serial_byte_for_byte(self):
        def fleet_store(workers):
            scenarios = [smoke_scenario(seed=seed) for seed in SEEDS]
            with obs.observed() as rec:
                result = run_fleet(scenarios, workers=workers)
            store = FleetStore()
            store.ingest_trace_records(rec.sink.records, run="fleet")
            return result, store

        serial_result, serial_store = fleet_store(workers=0)
        parallel_result, parallel_store = fleet_store(workers=WORKERS)
        assert parallel_store.to_jsonl() == serial_store.to_jsonl()
        # The per-warehouse attribution summaries of either run agree too.
        serial = [r.attribution for r in serial_result.rows]
        assert [r.attribution for r in parallel_result.rows] == serial
        assert all(s.conserved for s in serial)
