"""The streaming obs pipeline: spilling sinks, payload chunks, heartbeats,
and the resource probe (docs/OBSERVABILITY.md §v4)."""

import json

import pytest

from repro.obs import Recorder, RunManifest
from repro.obs.metrics import ObservabilityError
from repro.obs.stream import (
    CHUNK_SCHEMA_VERSION,
    NULL_PROBE,
    PayloadChunkMerger,
    ResourceProbe,
    SpillingTraceSink,
    campaign_progress,
    campaign_summary,
    payload_chunks,
    peak_rss_kb,
    read_heartbeats,
    write_heartbeat,
)


def _session(seed=1, n=10, sink=None):
    rec = Recorder(
        manifest=RunManifest(scenario="s", seed=seed, config_hash="ab"), sink=sink
    )
    for i in range(n):
        with rec.span("outer", float(i)) as sp:
            sp.set(i=i)
            with rec.span("inner", float(i) + 0.25):
                rec.emit("ping", float(i) + 0.5, i=i)
    return rec


class TestSpillingTraceSink:
    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ObservabilityError):
            SpillingTraceSink(tmp_path, max_records=0)

    def test_spills_beyond_bound_and_preserves_bytes(self, tmp_path):
        plain = _session(sink=None)
        spilled = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=7))
        assert spilled.sink.spilled_segments > 0
        # In-memory tail stays bounded by the spill threshold.
        assert len(spilled.sink._tail) <= 7
        assert spilled.sink.to_jsonl() == plain.sink.to_jsonl()
        assert len(spilled.sink) == len(plain.sink)
        assert spilled.sink.span_count == sum(
            1 for r in plain.sink.records if r["type"] == "span"
        )

    def test_iter_records_matches_materialized(self, tmp_path):
        rec = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=5))
        assert list(rec.sink.iter_records()) == rec.sink.records

    def test_dump_streams_same_bytes(self, tmp_path):
        rec = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=5))
        target = tmp_path / "t.jsonl"
        rec.sink.dump(target)
        assert target.read_text(encoding="utf-8") == rec.sink.to_jsonl()

    def test_cleanup_removes_segments(self, tmp_path):
        rec = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=5))
        assert any((tmp_path / "sp").glob("segment-*.jsonl"))
        rec.sink.cleanup()
        assert not any((tmp_path / "sp").glob("segment-*.jsonl"))
        assert len(rec.sink) == 0


def _merge(target, source, max_events):
    """Fold ``source``'s chunk stream into ``target``."""
    merger = PayloadChunkMerger(target)
    for chunk in payload_chunks(source, max_events=max_events):
        merger.merge(chunk)
    assert merger.finished


class TestPayloadChunks:
    def test_chunked_merge_equals_monolithic(self, tmp_path):
        """Multi-chunk streams equal single-chunk streams of each session."""
        whole, chunked = Recorder(), Recorder()
        source_a, source_b = _session(seed=1), _session(seed=2, n=7)
        for source in (source_a, source_b):
            _merge(whole, source, max_events=len(source.sink))
            _merge(chunked, source, max_events=5)
        assert chunked.sink.to_jsonl() == whole.sink.to_jsonl()
        assert chunked.metrics.to_json() == whole.metrics.to_json()

    def test_spilled_source_chunks_identically(self, tmp_path):
        plain = _session(seed=3)
        spilled = _session(seed=3, sink=SpillingTraceSink(tmp_path, max_records=4))
        a = [c for c in payload_chunks(plain, max_events=6)]
        b = [c for c in payload_chunks(spilled, max_events=6)]
        assert a == b

    def test_rejects_nonpositive_chunk_size(self):
        rec = _session()
        with pytest.raises(ObservabilityError):
            list(payload_chunks(rec, max_events=0))

    def test_rejects_open_spans(self):
        rec = Recorder()
        rec.span("open", 0.0).__enter__()
        with pytest.raises(ObservabilityError):
            list(payload_chunks(rec))

    def test_empty_recorder_yields_single_final_chunk(self):
        chunks = list(payload_chunks(Recorder(), max_events=4))
        assert len(chunks) == 1
        assert chunks[0]["final"] is True
        assert chunks[0]["schema"] == CHUNK_SCHEMA_VERSION
        assert chunks[0]["records"] == []

    def test_merger_rejects_out_of_order_and_double_finish(self):
        source = _session()
        chunks = list(payload_chunks(source, max_events=5))
        assert len(chunks) > 2
        target = Recorder()
        merger = PayloadChunkMerger(target)
        merger.merge(chunks[0])
        with pytest.raises(ObservabilityError):
            merger.merge(chunks[2])  # skipped seq 1
        finished = Recorder()
        _merge(finished, source, max_events=5)
        done = PayloadChunkMerger(finished)
        done.finished = True
        with pytest.raises(ObservabilityError):
            done.merge(chunks[0])

    def test_second_stream_refused_mid_flight(self):
        chunks = list(payload_chunks(_session(), max_events=5))
        target = Recorder()
        first = PayloadChunkMerger(target)
        first.merge(chunks[0])
        with pytest.raises(ObservabilityError, match="mid-flight"):
            PayloadChunkMerger(target)
        for chunk in chunks[1:]:
            first.merge(chunk)
        # Once the first stream merged its final chunk, the next may start.
        _merge(target, _session(seed=9), max_events=5)

    def test_final_chunk_rejects_span_count_mismatch(self):
        chunks = list(payload_chunks(_session(), max_events=5))
        chunks[0] = dict(chunks[0], span_id_total=chunks[0]["span_id_total"] + 1)
        merger = PayloadChunkMerger(Recorder())
        for chunk in chunks[:-1]:
            merger.merge(chunk)
        with pytest.raises(ObservabilityError, match="integrity"):
            merger.merge(chunks[-1])
        assert not merger.finished


class TestHeartbeats:
    def test_roundtrip_and_summary(self, tmp_path):
        progress = tmp_path / "progress"
        for job in (1, 0):
            write_heartbeat(
                progress, job, status="start", scenario=f"s{job}", protocol="p"
            )
            write_heartbeat(
                progress, job, status="chunk", seq=0,
                records=10, spans=9, events=1, sim_time=5.0,
            )
            write_heartbeat(
                progress, job, status="done", chunks=1,
                records=10, spans=9, events=1, sim_time=5.0,
            )
        beats = read_heartbeats(progress)
        assert sorted(beats) == [0, 1]
        rows = campaign_progress(progress)
        assert [r["job"] for r in rows] == [0, 1]
        assert all(r["status"] == "done" for r in rows)
        summary = campaign_summary(progress)
        assert summary["complete"] is True
        assert summary["n_jobs"] == 2
        assert summary["totals"]["records"] == 20

    def test_incomplete_job_flips_complete(self, tmp_path):
        progress = tmp_path / "progress"
        write_heartbeat(progress, 0, status="start", scenario="s", protocol="p")
        summary = campaign_summary(progress)
        assert summary["complete"] is False
        assert summary["jobs"][0]["status"] == "running"

    def test_empty_dir_is_not_complete(self, tmp_path):
        summary = campaign_summary(tmp_path)
        assert summary["jobs"] == []
        assert summary["complete"] is False

    def test_torn_lines_are_tolerated(self, tmp_path):
        progress = tmp_path / "progress"
        write_heartbeat(progress, 0, status="start", scenario="s", protocol="p")
        path = progress / "job-00000.jsonl"
        path.write_text(path.read_text(encoding="utf-8") + '{"torn', encoding="utf-8")
        assert len(read_heartbeats(progress)[0]) == 1


class TestResourceProbe:
    def test_report_shape_and_quarantine(self, tmp_path):
        probe = ResourceProbe()
        with probe.stage("merge"):
            pass
        probe.add_bytes("chunk_bytes", 128)
        probe.add_count("chunks", 3)
        probe.sample_rss("parent")
        probe.add_worker({"job": 0, "peak_rss_kb": 10})
        report = probe.report()
        assert report["schema"] == 1
        assert report["stages"]["merge"]["calls"] == 1
        assert report["bytes"]["chunk_bytes"] == 128
        assert report["counts"]["chunks"] == 3
        target = tmp_path / "r.resources.json"
        probe.dump(target)
        data = json.loads(target.read_text(encoding="utf-8"))
        # Wall-clock lives here and ONLY here (R018): the key must exist so
        # the quarantine is real, not vacuous.
        assert "wall_seconds" in data["stages"]["merge"]

    def test_null_probe_is_inert(self):
        with NULL_PROBE.stage("x"):
            NULL_PROBE.add_bytes("b", 1)
            NULL_PROBE.add_count("c")
            NULL_PROBE.sample_rss("p")
            NULL_PROBE.add_worker({})
        assert NULL_PROBE.report() == {}

    def test_peak_rss_is_positive_on_linux(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0
