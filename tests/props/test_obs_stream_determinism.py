"""ISSUE 8's acceptance bar: streamed observability is byte-identical.

A fleet run whose workers stream their observability out as bounded
payload chunks — through spill-bounded sinks and on-disk chunk spools —
must export **exactly** the bytes of a plain serial run, whose sessions
come home as in-memory chunk streams (the "monolithic" baseline in the
test names): trace JSONL, metrics, series, and the ingested fleet store.
Chunk/spill bounds are set small enough here that both the spill and the
multi-chunk paths actually execute (the stats assert it), so the identity
is proved over the real streaming machinery, not a degenerate single
chunk.
"""

import pytest

from repro import obs
from repro.experiments.runner import run_fleet
from repro.experiments.scenarios import smoke_scenario
from repro.obs.store import FleetStore
from repro.obs.stream import ResourceProbe, campaign_summary
from repro.parallel import StreamConfig

SEED = 123
WIDTH = 2  # scenarios per fleet
WORKERS = 2


def _scenarios():
    return [smoke_scenario(seed=SEED + i) for i in range(WIDTH)]


def _exports(rec):
    store = FleetStore()
    store.ingest_trace_records(rec.sink.records, run="fleet")
    return {
        "trace": rec.sink.to_jsonl(),
        "metrics": rec.metrics.to_json(),
        "series": rec.series.to_json(),
        "store": store.to_jsonl(),
    }


def _serial_in_memory():
    with obs.observed() as rec:
        result = run_fleet(_scenarios(), workers=0)
    return _exports(rec), result


def _streamed(tmp_path, workers):
    probe = ResourceProbe()
    cfg = StreamConfig(
        dir=tmp_path / f"stream-w{workers}",
        max_chunk_events=100,  # well below a smoke run's record count
        spill_records=150,  # forces worker sinks to spill segments
        probe=probe,
    )
    with obs.observed() as rec:
        result = run_fleet(_scenarios(), workers=workers, stream=cfg)
    return _exports(rec), result, probe.report(), cfg


class TestStreamedByteIdentity:
    """The tentpole acceptance test (one fleet run per mode, compared)."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("stream")
        serial, serial_result = _serial_in_memory()
        streamed0, result0, report0, _ = _streamed(tmp_path, workers=0)
        streamed2, result2, report2, cfg2 = _streamed(tmp_path, workers=WORKERS)
        return {
            "serial": serial,
            "streamed0": streamed0,
            "streamed2": streamed2,
            "results": (serial_result, result0, result2),
            "reports": (report0, report2),
            "cfg2": cfg2,
        }

    def test_workers2_streamed_equals_serial_monolithic(self, runs):
        assert runs["streamed2"] == runs["serial"]

    def test_serial_streamed_equals_serial_monolithic(self, runs):
        assert runs["streamed0"] == runs["serial"]

    def test_results_agree_across_modes(self, runs):
        serial, s0, s2 = runs["results"]
        fractions = [r.savings_fractions for r in (serial, s0, s2)]
        assert fractions[0] == fractions[1] == fractions[2]

    def test_streaming_machinery_actually_engaged(self, runs):
        _, report2 = runs["reports"]
        assert report2["counts"]["chunks_merged"] > WIDTH  # multi-chunk streams
        spilled = sum(w.get("spilled_segments", 0) for w in report2["workers"])
        assert spilled > 0  # worker sinks really spilled to disk
        assert report2["bytes"]["chunk_bytes_merged"] > 0

    def test_campaign_summary_complete_and_deterministic(self, runs):
        summary = campaign_summary(runs["cfg2"].base() / "progress")
        assert summary["complete"] is True
        assert summary["n_jobs"] == WIDTH
        assert summary["totals"]["spans"] > 0
