"""Streaming observability: the bounded-memory session transport for fleets.

A worker session leaves its job and enters the parent recorder one way
only: as an ordered stream of bounded payload chunks.  Whether the stream
lives in memory (a plain ``run_jobs`` call) or is spooled through disk
(a :class:`repro.parallel.StreamConfig` campaign), it is produced and
folded by the same two pieces, without giving up a single byte of the
determinism contract (docs/OBSERVABILITY.md §v4):

* :class:`SpillingTraceSink` — a drop-in ``TraceSink`` whose in-memory
  tail is size-bounded; overflow spills to byte-stable JSONL segment
  files whose deterministic concatenation *is* ``to_jsonl()``, so a
  worker's peak RSS is O(spill bound), not O(run);
* :func:`payload_chunks` / :class:`PayloadChunkMerger` — the session
  split into an ordered stream of bounded chunks and folded back
  incrementally; any chunk size merges byte-identically to a single
  chunk holding the whole session (``tests/props/test_payload_merge_props``
  states this as an equality);
* campaign **heartbeats** — workers append deterministic progress records
  (scenario, chunk seq, spans/events, sim-time reached) to a per-job file
  in a progress directory; ``repro.cli obs watch`` tails them and
  :func:`campaign_summary` folds them into a byte-stable summary;
* :class:`ResourceProbe` — the *only* place wall-clock and RSS readings
  are allowed to land.  They are exported exclusively to a
  ``.resources.json`` sidecar, never into trace/metrics/series exports,
  so the byte-identity surface stays clean (lint rule R018,
  docs/INVARIANTS.md).
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.common.stable_json import canonical_json, dumps_json
from repro.obs.metrics import ObservabilityError

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: Bumped on any incompatible change to the chunk record shape.
CHUNK_SCHEMA_VERSION = 1
#: Bumped on any incompatible change to heartbeat / summary shapes.
HEARTBEAT_SCHEMA_VERSION = 1
#: Bumped on any incompatible change to the resources sidecar shape.
RESOURCES_SCHEMA_VERSION = 1

#: Default trace records per payload chunk.
DEFAULT_CHUNK_EVENTS = 512
#: Default in-memory records before a :class:`SpillingTraceSink` spills.
DEFAULT_SPILL_RECORDS = 4096


def _record_line(record: dict) -> str:
    """The one byte-stable serialization every trace export uses."""
    return canonical_json(record) + "\n"


# --------------------------------------------------------------------- sink
class SpillingTraceSink:
    """A ``TraceSink`` with a bounded in-memory tail and disk spill.

    Keeps at most ``max_records`` records in memory; on overflow the tail
    is written as a JSONL *segment* file (exactly the bytes ``to_jsonl``
    would produce for those records) and cleared.  Because segments are
    immutable and ordered, ``to_jsonl()`` is the deterministic
    concatenation of segment bytes plus the serialized tail — byte
    identical to what a plain :class:`repro.obs.trace.TraceSink` holding
    the same records would export.
    """

    def __init__(
        self,
        spill_dir: str | pathlib.Path,
        max_records: int = DEFAULT_SPILL_RECORDS,
    ):
        if max_records <= 0:
            raise ObservabilityError("spill bound must be a positive record count")
        self.spill_dir = pathlib.Path(spill_dir)
        self.max_records = int(max_records)
        self._tail: list[dict] = []
        self._segments: list[pathlib.Path] = []
        self._spilled = 0
        self.span_count = 0
        self.event_count = 0

    # -- write path
    def write(self, record: dict) -> None:
        self._tail.append(record)
        rtype = record.get("type")
        if rtype == "span":
            self.span_count += 1
        elif rtype == "event":
            self.event_count += 1
        if len(self._tail) >= self.max_records:
            self._spill()

    def _spill(self) -> None:
        if not self._tail:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"segment-{len(self._segments):06d}.jsonl"
        path.write_text(
            "".join(_record_line(r) for r in self._tail), encoding="utf-8"
        )
        self._segments.append(path)
        self._spilled += len(self._tail)
        self._tail = []

    # -- read path
    def __len__(self) -> int:
        return self._spilled + len(self._tail)

    @property
    def spilled_segments(self) -> int:
        return len(self._segments)

    @property
    def records(self) -> list[dict]:
        """All records, materialized (compat with ``TraceSink.records``).

        O(run) memory — the monolithic escape hatch.  Streaming callers
        iterate :meth:`iter_records` instead.
        """
        return list(self.iter_records())

    def iter_records(self) -> Iterator[dict]:
        """Records in emission order, one at a time (segments re-parsed).

        The JSON round-trip is lossless here: every record was already
        coerced to plain JSON types by ``_jsonable`` at emission.
        """
        for path in self._segments:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        yield json.loads(line)
        yield from self._tail

    def iter_jsonl(self) -> Iterator[str]:
        """The export bytes, one bounded piece at a time."""
        for path in self._segments:
            yield path.read_text(encoding="utf-8")
        for record in self._tail:
            yield _record_line(record)

    def to_jsonl(self) -> str:
        return "".join(self.iter_jsonl())

    def dump(self, path: str | pathlib.Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for piece in self.iter_jsonl():
                fh.write(piece)

    def cleanup(self) -> None:
        """Delete spill segments (call after the records left the sink)."""
        for path in self._segments:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._segments = []
        self._spilled = 0
        self._tail = []
        self.span_count = 0
        self.event_count = 0


def _iter_sink_records(sink: object) -> Iterable[dict]:
    """Iterate any sink's records without materializing when avoidable."""
    iterate = getattr(sink, "iter_records", None)
    if callable(iterate):
        return iterate()
    return sink.records


# ------------------------------------------------------------------- chunks
def payload_chunks(recorder, max_events: int = DEFAULT_CHUNK_EVENTS) -> Iterator[dict]:
    """Split a completed session into an ordered stream of payload chunks.

    Each chunk carries at most ``max_events`` trace records plus that
    chunk's span-record count; the first chunk declares the session's
    total consumed span ids (so the merger can reserve the whole block up
    front), and the final chunk carries the metrics/series snapshots —
    bounded aggregates that need no chunking.  A session with zero records still yields one final chunk.
    """
    if max_events <= 0:
        raise ObservabilityError("chunk size must be a positive record count")
    if recorder._stack:
        raise ObservabilityError("cannot stream a session payload with open spans")
    sink = recorder.sink
    total_spans = getattr(sink, "span_count", None)
    if total_spans is None:
        total_spans = sum(
            1 for r in _iter_sink_records(sink) if r.get("type") == "span"
        )
    seq = 0
    batch: list[dict] = []
    batch_spans = 0

    def chunk(final: bool) -> dict:
        out = {
            "schema": CHUNK_SCHEMA_VERSION,
            "seq": seq,
            "final": final,
            "records": batch,
            "span_ids": batch_spans,
        }
        if seq == 0:
            out["span_id_total"] = int(total_spans)
        if final:
            out["metrics"] = recorder.metrics.snapshot()
            out["series"] = recorder.series.snapshot()
        return out

    for record in _iter_sink_records(sink):
        batch.append(record)
        if record.get("type") == "span":
            batch_spans += 1
        if len(batch) >= max_events:
            yield chunk(final=False)
            seq += 1
            batch = []
            batch_spans = 0
    yield chunk(final=True)


class PayloadChunkMerger:
    """Folds one worker session's ordered chunk stream into a recorder.

    The only way a foreign session enters a recorder.  Reserves the
    worker's whole span-id block on the first chunk (the stream declares
    its total up front), then renumbers and appends each chunk's records
    as it arrives — so after the final chunk the parent session is
    byte-identical to a serial run of the same scenario, while never
    holding more than one chunk in memory.  Streams fold one at a time:
    a second merger on the same recorder is refused until the first has
    merged its final chunk, since interleaved streams would interleave
    records and span-id blocks.  Alert *dedup state* does not travel:
    each scenario runs its own alert lifecycle (the fire/resolve events
    are already in the records).
    """

    def __init__(self, recorder):
        if recorder._chunk_merger is not None:
            raise ObservabilityError(
                "another chunk stream is mid-flight on this recorder; "
                "merge its final chunk first"
            )
        recorder._chunk_merger = self
        self.recorder = recorder
        self.finished = False
        self._next_seq = 0
        self._offset = 0
        self._span_total: int | None = None
        self._merged_spans = 0

    def merge(self, chunk: dict) -> None:
        if self.finished:
            raise ObservabilityError("chunk stream already merged its final chunk")
        if self.recorder._stack:
            raise ObservabilityError(
                "cannot merge a payload chunk while spans are open"
            )
        schema = chunk.get("schema")
        if schema != CHUNK_SCHEMA_VERSION:
            raise ObservabilityError(
                f"unsupported chunk schema {schema!r} "
                f"(expected {CHUNK_SCHEMA_VERSION})"
            )
        seq = int(chunk["seq"])
        if seq != self._next_seq:
            raise ObservabilityError(
                f"chunk out of order: got seq {seq}, expected {self._next_seq}"
            )
        if seq == 0:
            total = int(chunk["span_id_total"])
            self._span_total = total
            self._offset = (
                self.recorder.reserve_span_ids(total) - 1 if total else 0
            )
        self._merged_spans += self.recorder._merge_records(
            chunk["records"], self._offset
        )
        self._next_seq += 1
        if chunk["final"]:
            if self._merged_spans != self._span_total:
                raise ObservabilityError(
                    f"chunk stream integrity failure: merged "
                    f"{self._merged_spans} span records but the stream "
                    f"declared {self._span_total}"
                )
            self.recorder.metrics.merge(chunk["metrics"])
            self.recorder.series.merge(chunk["series"])
            self.finished = True
            self.recorder._chunk_merger = None


# --------------------------------------------------------------- heartbeats
def heartbeat_path(progress_dir: str | pathlib.Path, job_index: int) -> pathlib.Path:
    return pathlib.Path(progress_dir) / f"job-{job_index:05d}.jsonl"


def write_heartbeat(
    progress_dir: str | pathlib.Path, job_index: int, **fields: object
) -> None:
    """Append one heartbeat record to the job's progress file.

    Each job writes only its own file, so concurrent workers never
    contend; every field is deterministic simulation state (status,
    chunk seq, record counts, sim-time reached) — never a clock reading —
    which is what makes :func:`campaign_summary` byte-stable.
    """
    path = heartbeat_path(progress_dir, job_index)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = {"schema": HEARTBEAT_SCHEMA_VERSION, "job": int(job_index), **fields}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_record_line(row))


def read_heartbeats(progress_dir: str | pathlib.Path) -> dict[int, list[dict]]:
    """All heartbeat records by job index (files read in sorted order)."""
    base = pathlib.Path(progress_dir)
    out: dict[int, list[dict]] = {}
    if not base.is_dir():
        return out
    for path in sorted(base.glob("job-*.jsonl")):
        rows: list[dict] = []
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:  # pragma: no cover - file vanished mid-read
            continue
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue  # a heartbeat torn mid-append; the next poll heals it
            if isinstance(row, dict):
                rows.append(row)
        if rows:
            out[int(rows[0].get("job", -1))] = rows
    return out


def campaign_progress(progress_dir: str | pathlib.Path) -> list[dict]:
    """One row per job: the latest known state folded from its heartbeats."""
    rows = []
    heartbeats = read_heartbeats(progress_dir)
    for job_index in sorted(heartbeats):
        beats = heartbeats[job_index]
        state = {
            "job": job_index,
            "scenario": "?",
            "protocol": "?",
            "status": "unknown",
            "chunks": 0,
            "records": 0,
            "spans": 0,
            "events": 0,
            "sim_time": 0.0,
        }
        for beat in beats:
            status = beat.get("status")
            if status == "start":
                state["scenario"] = str(beat.get("scenario", "?"))
                state["protocol"] = str(beat.get("protocol", "?"))
                state["status"] = "running"
            elif status == "chunk":
                state["status"] = "running"
                state["chunks"] = int(beat.get("seq", -1)) + 1
                for key in ("records", "spans", "events"):
                    state[key] = int(beat.get(key, state[key]))
                state["sim_time"] = float(beat.get("sim_time", state["sim_time"]))
            elif status == "done":
                state["status"] = "done"
                state["chunks"] = int(beat.get("chunks", state["chunks"]))
                for key in ("records", "spans", "events"):
                    state[key] = int(beat.get(key, state[key]))
                state["sim_time"] = float(beat.get("sim_time", state["sim_time"]))
        rows.append(state)
    return rows


def campaign_summary(progress_dir: str | pathlib.Path) -> dict:
    """The byte-stable end-of-campaign summary folded from heartbeats.

    A pure function of the heartbeat records, which are themselves pure
    simulation state — so two same-seed campaigns summarize to identical
    bytes regardless of workers, machine, or wall-clock (the CI streaming
    smoke ``cmp``s this file across runs).
    """
    jobs = campaign_progress(progress_dir)
    totals = {
        "chunks": sum(j["chunks"] for j in jobs),
        "records": sum(j["records"] for j in jobs),
        "spans": sum(j["spans"] for j in jobs),
        "events": sum(j["events"] for j in jobs),
    }
    return {
        "schema": HEARTBEAT_SCHEMA_VERSION,
        "jobs": jobs,
        "n_jobs": len(jobs),
        "complete": bool(jobs) and all(j["status"] == "done" for j in jobs),
        "totals": totals,
    }


# ----------------------------------------------------------- resource probe
def peak_rss_kb() -> int | None:
    """This process's peak RSS high-water mark in KiB (``None`` off-POSIX).

    Resource *usage*, not a clock — R001 does not apply — but still
    machine-dependent, so it must only ever land in the resources sidecar.
    """
    if _resource is None:  # pragma: no cover - non-POSIX
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class ResourceProbe:
    """Self-profiling for obs pipelines: wall-clock stage costs, byte and
    record counts, and peak-RSS samples.

    This class is the designated quarantine for nondeterministic readings
    (docs/INVARIANTS.md R018): its report is written to a
    ``.resources.json`` sidecar and must never flow into trace, metrics,
    series, alert, store, or campaign-summary exports.  That is why the
    export method is ``report()`` — deliberately *not* ``to_dict``/
    ``snapshot``, the payload-function names readers treat as determinism
    surfaces.  Its two wall-clock reads carry R001 suppressions, so no lint
    rule follows their values: keeping them out of the exports is this
    class's own contract.
    """

    def __init__(self):
        self._stages: dict[str, dict] = {}
        self._bytes: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._rss_kb: dict[str, int] = {}
        self._workers: list[dict] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one pipeline stage (merge, export, ...) by wall clock."""
        begin = time.perf_counter()  # repro-lint: disable=R001
        try:
            yield
        finally:
            elapsed = time.perf_counter() - begin  # repro-lint: disable=R001
            entry = self._stages.setdefault(
                name, {"calls": 0, "wall_seconds": 0.0}
            )
            entry["calls"] += 1
            entry["wall_seconds"] += elapsed

    def add_bytes(self, name: str, n: int) -> None:
        self._bytes[name] = self._bytes.get(name, 0) + int(n)

    def add_count(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + int(n)

    def sample_rss(self, label: str) -> None:
        """Record the current peak-RSS high-water mark under ``label``."""
        kb = peak_rss_kb()
        if kb is not None:
            self._rss_kb[label] = max(self._rss_kb.get(label, 0), kb)

    def add_worker(self, stats: dict | None) -> None:
        """Attach one worker's self-reported stats (chunk counts, RSS)."""
        if stats:
            self._workers.append(dict(stats))

    def report(self) -> dict:
        """The sidecar payload.  Wall-clock and RSS values stop here."""
        worker_rss = [
            w["peak_rss_kb"]
            for w in self._workers
            if w.get("peak_rss_kb") is not None
        ]
        return {
            "schema": RESOURCES_SCHEMA_VERSION,
            "stages": {name: self._stages[name] for name in sorted(self._stages)},
            "bytes": {name: self._bytes[name] for name in sorted(self._bytes)},
            "counts": {name: self._counts[name] for name in sorted(self._counts)},
            "peak_rss_kb": {
                name: self._rss_kb[name] for name in sorted(self._rss_kb)
            },
            "workers": self._workers,
            "worker_peak_rss_kb_max": max(worker_rss) if worker_rss else None,
        }

    def dump(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(dumps_json(self.report()), encoding="utf-8")


class _NullProbe:
    """Shared no-op probe so streaming code never branches on probe-ness."""

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        yield

    def add_bytes(self, name: str, n: int) -> None:
        pass

    def add_count(self, name: str, n: int = 1) -> None:
        pass

    def sample_rss(self, label: str) -> None:
        pass

    def add_worker(self, stats: dict | None) -> None:
        pass

    def report(self) -> dict:
        return {}


NULL_PROBE = _NullProbe()
