"""Structured sim-time tracing: spans, events, and the JSONL trace sink.

Deterministic by construction (docs/OBSERVABILITY.md):

* every record's ``time`` is **simulation time** passed explicitly by the
  call site — the layer never reads a clock (lint rule R001);
* span ids come from a per-run monotonic counter, so id assignment is a
  pure function of the instrumented code path;
* exports are sorted-key compact JSON, one record per line, in emission
  order — two runs of the same ``(scenario, seed)`` produce byte-identical
  files.

The module-level API (``span``/``emit``/``counter``/...) is a no-op until a
:class:`Recorder` is installed with :func:`start` or the :func:`observed`
context manager; the disabled fast path is one global read and a no-op
call, cheap enough to leave instrumentation permanently in hot paths
(``benchmarks/bench_fig6_overhead.py`` measures it).

In a discrete-event simulation a callback executes at a single instant, so
most spans have ``time_end == time``; spans still capture nesting (which
controller fired, which replay ran inside which tick) and carry attributes
set while they are open.
"""

from __future__ import annotations

import itertools
import pathlib
from contextlib import contextmanager
from typing import Iterator

from repro.common.stable_json import canonical_json
from repro.obs.alerts import NULL_ALERTS, AlertManager
from repro.obs.manifest import RunManifest
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
)
from repro.obs.series import DEFAULT_BUCKET_SECONDS, SeriesRegistry

#: Bumped on any incompatible change to the trace record shapes below.
TRACE_SCHEMA_VERSION = 1


def sidecar_path(trace_path: str | pathlib.Path, kind: str) -> pathlib.Path:
    """Where a trace's ``kind`` sidecar lives: ``<trace>.<kind>.json``, or
    ``<trace>.report.md`` for the markdown run report.  :meth:`Recorder.dump`
    writes metrics/series; ``obs campaign`` adds campaign/resources."""
    path = pathlib.Path(trace_path)
    extension = "md" if kind == "report" else "json"
    return path.with_name(f"{path.name}.{kind}.{extension}")


def _jsonable(value: object) -> object:
    """Coerce attribute values to plain JSON types (numpy scalars included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(value[k]) for k in sorted(value, key=str)}
    item = getattr(value, "item", None)  # numpy scalar -> python scalar
    if callable(item):
        return _jsonable(item())
    return str(value)


class TraceSink:
    """An in-memory buffer of trace records with byte-stable JSONL export."""

    def __init__(self):
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        return "".join(
            canonical_json(record) + "\n"
            for record in self.records
        )

    def dump(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(self.to_jsonl(), encoding="utf-8")


class Span:
    """An open span; records itself into the sink when closed.

    Use as a context manager.  ``set(**attrs)`` adds attributes while open
    (e.g. results computed inside the span); ``set_end(t)`` moves the end
    timestamp for the rare span that covers a sim-time range.
    """

    __slots__ = ("_recorder", "span_id", "parent_id", "name", "time", "time_end", "attrs")

    def __init__(
        self,
        recorder: "Recorder",
        span_id: int,
        parent_id: int | None,
        name: str,
        time: float,
        attrs: dict,
    ):
        self._recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.time = time
        self.time_end = time
        self.attrs = attrs

    def set(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def set_end(self, time: float) -> None:
        self.time_end = float(time)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._recorder._close_span(self)
        return False  # never swallow


class _NullSpan:
    """The shared, stateless span handed out while observation is disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def set_end(self, time: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Recorder:
    """One observation session: trace buffer, metrics + sim-time series,
    alert lifecycle, and span state."""

    def __init__(
        self,
        sink: TraceSink | None = None,
        manifest: RunManifest | None = None,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
    ):
        # `sink or TraceSink()` would discard a caller's *empty* sink
        # (len() == 0 makes it falsy); test identity, not truthiness.
        self.sink = sink if sink is not None else TraceSink()
        self.series = SeriesRegistry(bucket_seconds)
        self.metrics = MetricsRegistry(series=self.series)
        self.alerts = AlertManager(self)
        self.manifest = manifest
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        # The in-flight PayloadChunkMerger, if any: one stream at a time.
        self._chunk_merger = None
        if manifest is not None:
            self.sink.write(
                {
                    "type": "manifest",
                    "schema": TRACE_SCHEMA_VERSION,
                    **manifest.to_dict(),
                }
            )

    # ----------------------------------------------------------------- trace
    def emit(self, name: str, time: float, **attrs: object) -> None:
        """Record a point event at sim time ``time``."""
        self.sink.write(
            {
                "type": "event",
                "name": name,
                "time": float(time),
                "span": self._stack[-1] if self._stack else None,
                "attrs": {k: _jsonable(v) for k, v in attrs.items()},
            }
        )

    def span(self, name: str, time: float, **attrs: object) -> Span:
        """Open a nested span at sim time ``time`` (use with ``with``)."""
        span = Span(
            self,
            next(self._ids),
            self._stack[-1] if self._stack else None,
            name,
            float(time),
            dict(attrs),
        )
        self._stack.append(span.span_id)
        return span

    def _close_span(self, span: Span) -> None:
        if not self._stack or self._stack[-1] != span.span_id:
            raise ObservabilityError(
                f"span {span.name!r} (id {span.span_id}) closed out of order"
            )
        self._stack.pop()
        self.sink.write(
            {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "time": span.time,
                "time_end": span.time_end,
                "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )

    # ------------------------------------------------------- session merging
    def reserve_span_ids(self, n: int) -> int:
        """Consume a contiguous block of ``n`` span ids; return the first.

        The parallel experiment layer renumbers a worker session's spans
        into this block, so the merged trace carries exactly the ids a
        serial run would have assigned (docs/PERFORMANCE.md).
        """
        if n <= 0:
            raise ObservabilityError("must reserve a positive span id block")
        first = next(self._ids)
        for _ in range(n - 1):
            next(self._ids)
        return first

    def _merge_records(self, records: list[dict], offset: int) -> int:
        """Renumber and append foreign records; returns the span count.

        The one renumbering rule a worker session's chunk stream goes
        through (:class:`repro.obs.stream.PayloadChunkMerger`): span ids
        and parent/enclosing-span references shift by ``offset``.
        """
        spans = 0
        for record in records:
            rtype = record.get("type")
            if rtype == "span":
                spans += 1
                record = dict(record)
                record["id"] = record["id"] + offset
                if record["parent"] is not None:
                    record["parent"] = record["parent"] + offset
            elif rtype == "event" and record.get("span") is not None:
                record = dict(record)
                record["span"] = record["span"] + offset
            self.sink.write(record)
        return spans

    def dump(self, trace_path: str | pathlib.Path) -> pathlib.Path:
        """Write the trace JSONL and its metrics and series sidecars."""
        path = pathlib.Path(trace_path)
        self.sink.dump(path)
        sidecar_path(path, "metrics").write_text(self.metrics.to_json(), encoding="utf-8")
        sidecar_path(path, "series").write_text(self.series.to_json(), encoding="utf-8")
        return path

    # --------------------------------------------------------------- metrics
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
        if buckets is None:
            return self.metrics.histogram(name)
        return self.metrics.histogram(name, buckets)


# ----------------------------------------------------------- global session
_RECORDER: Recorder | None = None


def recorder() -> Recorder | None:
    """The active recorder, or ``None`` while observation is disabled."""
    return _RECORDER


def enabled() -> bool:
    return _RECORDER is not None


def start(
    manifest: RunManifest | None = None,
    sink: TraceSink | None = None,
    bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
) -> Recorder:
    """Install a fresh recorder as the process-wide observation session."""
    global _RECORDER
    if _RECORDER is not None:
        raise ObservabilityError(
            "an observation session is already active; stop() it first"
        )
    _RECORDER = Recorder(sink, manifest, bucket_seconds=bucket_seconds)
    return _RECORDER


def stop() -> Recorder:
    """Tear down the active session and return it (for export/inspection)."""
    global _RECORDER
    if _RECORDER is None:
        raise ObservabilityError("no observation session is active")
    rec, _RECORDER = _RECORDER, None
    return rec


def resume(rec: Recorder) -> Recorder:
    """Reinstall a previously-:func:`stop`-ped recorder as the session.

    The parallel layer's inline driver runs each scenario in an isolated
    session: it stops the caller's recorder, records the scenario into a
    fresh one, then resumes the original and folds the isolated session's
    chunk stream into it.
    """
    global _RECORDER
    if _RECORDER is not None:
        raise ObservabilityError(
            "an observation session is already active; stop() it first"
        )
    _RECORDER = rec
    return rec


@contextmanager
def observed(
    manifest: RunManifest | None = None,
    sink: TraceSink | None = None,
    bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
) -> Iterator[Recorder]:
    """Scoped observation session: ``with obs.observed() as rec: ...``."""
    rec = start(manifest, sink, bucket_seconds=bucket_seconds)
    try:
        yield rec
    finally:
        stop()


# ------------------------------------------------- no-op-when-disabled API
def emit(name: str, time: float, **attrs: object) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.emit(name, time, **attrs)


def span(name: str, time: float, **attrs: object):
    rec = _RECORDER
    if rec is None:
        return NULL_SPAN
    return rec.span(name, time, **attrs)


def counter(name: str):
    rec = _RECORDER
    return NULL_COUNTER if rec is None else rec.counter(name)


def gauge(name: str):
    rec = _RECORDER
    return NULL_GAUGE if rec is None else rec.gauge(name)


def histogram(name: str, buckets: tuple[float, ...] | None = None):
    rec = _RECORDER
    return NULL_HISTOGRAM if rec is None else rec.histogram(name, buckets)


def alerts():
    """The active session's :class:`AlertManager`, or a shared no-op one."""
    rec = _RECORDER
    return NULL_ALERTS if rec is None else rec.alerts
