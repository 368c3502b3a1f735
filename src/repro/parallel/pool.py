"""The process pool: job specs, the worker entrypoint, and ``run_jobs``.

Execution model
---------------

A :class:`WorkerJob` names a *protocol* (a registered per-scenario
function, e.g. the §7.1 before/after row) and the scenario to run it on.
``run_jobs`` executes the jobs and returns their results in submission
order:

* ``workers=0`` (default) runs everything inline, one isolated
  observation session per job when a session is active;
* ``workers>0`` runs jobs in ``spawn``-context worker processes.  Each
  worker rebuilds its scenario from the job's
  :class:`~repro.experiments.scenarios.ScenarioSpec`, records into a
  fresh session, and ships the result plus the session back.

Both drivers run the same job body (:func:`_execute`), which always emits
an observed session as a chunk stream — in memory, or spooled to disk
under a :class:`StreamConfig` — and the parent folds every stream through
the same :func:`_fold_session` in submission order.  So the two drivers
produce byte-identical traces, metrics and series exports
(tests/experiments/test_parallel.py states this as an equality).

Worker deaths are survivable: a :class:`BrokenProcessPool` (OOM kill,
segfault, ``os._exit``) rebuilds the pool and re-submits the jobs that
were lost, with a bounded per-job budget — a job that keeps killing
workers is quarantined behind a typed :class:`ParallelExecutionError`
carrying heartbeat evidence instead of burning processes forever.
Deterministic in-job exceptions never retry, and ``KeyboardInterrupt``
re-raises untouched (see :func:`_run_with_worker_recovery`).

``spawn`` (not ``fork``) is deliberate: workers start from a clean
interpreter, so they cannot inherit the parent's active recorder, warmed
caches, or any other ambient state that could make a worker run diverge
from a fresh serial run.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.common.errors import ReproError
from repro.common.stable_json import canonical_json
from repro.obs import stream as obs_stream
from repro.obs import trace as obs_trace
from repro.obs.series import DEFAULT_BUCKET_SECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.scenarios import Scenario, ScenarioSpec

#: Times a single job may be implicated in a worker death before it is
#: quarantined instead of retried (one retry: crashes are either transient
#: environmental kills, gone on the second attempt, or deterministic
#: poison, where more attempts only burn more workers).
WORKER_DEATH_RETRY_LIMIT = 2


class ParallelExecutionError(ReproError):
    """A job could not be shipped to or completed by a worker process.

    Always names the failing scenario's spec (``factory(kwargs)[index]``)
    so a fleet failure points at the one rebuildable scenario to rerun.
    """


#: Protocol registry: name -> per-scenario callable.  Populated by
#: :func:`register_protocol` when :mod:`repro.experiments.runner` imports;
#: workers resolve lazily through :func:`resolve_protocol`.
_PROTOCOLS: dict[str, Callable] = {}


def register_protocol(name: str) -> Callable:
    """Register a per-scenario protocol function under ``name``.

    Protocol functions take a built ``Scenario`` (plus keyword arguments
    from the job) and must return a **picklable** result — optimizers and
    accounts stay behind in the worker.
    """

    def decorate(fn: Callable) -> Callable:
        if name in _PROTOCOLS:
            raise ParallelExecutionError(f"duplicate protocol {name!r}")
        _PROTOCOLS[name] = fn
        return fn

    return decorate


def resolve_protocol(name: str) -> Callable:
    """Look up a protocol by name, importing the runner module first.

    The lazy import breaks the ``runner -> parallel`` cycle and doubles as
    the worker-side bootstrap: a freshly spawned process only needs the
    job to know which code to run.
    """
    import repro.experiments.runner  # noqa: F401  (registers protocols)

    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise ParallelExecutionError(
            f"unknown protocol {name!r}; registered: {sorted(_PROTOCOLS)}"
        ) from None


@dataclass(frozen=True)
class WorkerJob:
    """One unit of work: run ``protocol`` on one scenario.

    Callers in the same process may attach the live ``scenario`` object
    (used by the serial path, and the source of the spec when shipping);
    only the picklable ``(protocol, spec, kwargs)`` triple ever crosses a
    process boundary.
    """

    protocol: str
    spec: "ScenarioSpec | None" = None
    scenario: "Scenario | None" = field(default=None, compare=False)
    kwargs: tuple[tuple[str, object], ...] = ()

    def build_scenario(self) -> "Scenario":
        if self.scenario is not None:
            return self.scenario
        if self.spec is None:
            raise ParallelExecutionError(
                f"job for protocol {self.protocol!r} has neither a scenario "
                "nor a spec"
            )
        return self.spec.build()

    def shippable(self) -> "WorkerJob":
        """A copy safe to pickle: spec only, live scenario stripped."""
        spec = self.spec
        if spec is None and self.scenario is not None:
            spec = self.scenario.spec
        if spec is None:
            name = getattr(self.scenario, "name", None)
            raise ParallelExecutionError(
                f"cannot ship scenario {name!r} to a worker: it carries no "
                "ScenarioSpec — build it through a registered "
                "@scenario_factory (docs/PERFORMANCE.md)"
            )
        return replace(self, spec=spec, scenario=None)


@dataclass(frozen=True)
class StreamConfig:
    """How ``run_jobs`` should stream observability out of its workers.

    ``dir`` is the campaign directory; workers spill trace segments under
    ``<dir>/spill/job-<i>/``, spool their payload chunk streams to
    ``<dir>/spool/job-<i>.chunks.jsonl``, and append heartbeats under
    ``<dir>/progress/`` (``repro.cli obs watch`` tails those).  ``probe``
    is an optional parent-side :class:`repro.obs.stream.ResourceProbe`;
    it never crosses the process boundary — workers self-report plain
    stats dicts that the parent folds into it.
    """

    dir: str | pathlib.Path
    max_chunk_events: int = obs_stream.DEFAULT_CHUNK_EVENTS
    spill_records: int = obs_stream.DEFAULT_SPILL_RECORDS
    probe: object | None = field(default=None, compare=False)

    def base(self) -> pathlib.Path:
        return pathlib.Path(self.dir)


def _execute(
    job: WorkerJob,
    index: int,
    observe: bool,
    bucket_seconds: float,
    cfg: StreamConfig | None,
):
    """The one per-job body: rebuild, run, and emit the session as chunks.

    Module-level so ``spawn`` can pickle it by reference; the inline
    driver runs *exactly* this code too.  Returns
    ``(result, session, stats)``:

    * ``session`` is ``None`` for an unobserved job.  Otherwise it is the
      job's chunk stream: a list of chunks in memory without ``cfg``, or
      with ``cfg`` the path of the spool file the chunks were written to
      (recorded behind a :class:`~repro.obs.stream.SpillingTraceSink`,
      so peak RSS is bounded by the spill threshold, not the run length);
    * ``stats`` is ``None`` without ``cfg``; with it, deterministic counts
      plus the worker's peak RSS, routed exclusively to the resources
      sidecar.

    Only with ``cfg`` does the job write heartbeats or touch the disk.
    """
    if cfg is not None:
        obs_stream.write_heartbeat(
            cfg.base() / "progress", index, status="start",
            scenario=_job_label(job), protocol=job.protocol,
        )
    fn = resolve_protocol(job.protocol)
    scenario = job.build_scenario()
    if not observe:
        result = fn(scenario, **dict(job.kwargs))
        if cfg is None:
            return result, None, None
        obs_stream.write_heartbeat(
            cfg.base() / "progress", index, status="done",
            records=0, spans=0, events=0, chunks=0, sim_time=0.0,
        )
        return result, None, {"job": index, "peak_rss_kb": obs_stream.peak_rss_kb()}
    if cfg is None:
        sink = obs_trace.TraceSink()
    else:
        sink = obs_stream.SpillingTraceSink(
            cfg.base() / "spill" / f"job-{index:05d}", max_records=cfg.spill_records
        )
    rec = obs_trace.start(sink=sink, bucket_seconds=bucket_seconds)
    try:
        result = fn(scenario, **dict(job.kwargs))
    finally:
        obs_trace.stop()
    if cfg is None:
        return result, list(obs_stream.payload_chunks(rec)), None
    return (result, *_spool_session(rec, index, cfg))


def _job_label(job: WorkerJob) -> str:
    """The scenario label heartbeats carry — identical on both drivers.

    Inline jobs arrive un-shipped (spec on the scenario, not the job), so
    look through to the scenario's spec before falling back to its name.
    """
    spec = job.spec
    if spec is None and job.scenario is not None:
        spec = getattr(job.scenario, "spec", None)
    if spec is not None:
        return spec.describe()
    return str(getattr(job.scenario, "name", "?"))


def _spool_session(rec, index: int, cfg: StreamConfig) -> tuple[str, dict]:
    """Write a finished session's chunk stream to its spool file.

    Heartbeats every chunk, drops the spill segments once the records are
    spooled, and returns ``(spool_path, stats)``.
    """
    base = cfg.base()
    progress = base / "progress"
    spool_dir = base / "spool"
    spool_dir.mkdir(parents=True, exist_ok=True)
    spool_path = spool_dir / f"job-{index:05d}.chunks.jsonl"
    records = spans = events = chunks = 0
    sim_time = 0.0
    with open(spool_path, "w", encoding="utf-8") as fh:
        for chunk in obs_stream.payload_chunks(rec, max_events=cfg.max_chunk_events):
            fh.write(
                canonical_json(chunk) + "\n"
            )
            chunks += 1
            records += len(chunk["records"])
            spans += int(chunk["span_ids"])
            for record in chunk["records"]:
                if record.get("type") == "event":
                    events += 1
                sim_time = max(
                    sim_time,
                    float(record.get("time_end", record.get("time", 0.0)) or 0.0),
                )
            obs_stream.write_heartbeat(
                progress, index, status="chunk", seq=chunk["seq"],
                records=records, spans=spans, events=events, sim_time=sim_time,
            )
    spilled_segments = rec.sink.spilled_segments
    rec.sink.cleanup()
    obs_stream.write_heartbeat(
        progress, index, status="done",
        records=records, spans=spans, events=events, chunks=chunks,
        sim_time=sim_time,
    )
    stats = {
        "job": index,
        "records": records,
        "spans": spans,
        "events": events,
        "chunks": chunks,
        "spool_bytes": spool_path.stat().st_size,
        "spilled_segments": spilled_segments,
        "peak_rss_kb": obs_stream.peak_rss_kb(),
    }
    return str(spool_path), stats


def _read_spool(path: str, probe) -> Iterator[dict]:
    """A spool's chunks, parsed one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                probe.add_bytes("chunk_bytes_merged", len(line))
                yield json.loads(line)


def _fold_session(parent, index: int, session, probe) -> None:
    """The one fold: merge a job's chunk stream into the parent session.

    ``session`` is an in-memory chunk list or a spool path; a spool is
    read one line at a time — the parent never holds more than a single
    chunk — and deleted once merged.  A stream that ends before its
    final chunk means the worker died mid-capture; that must fail
    loudly, not truncate the trace silently.
    """
    spool = session if isinstance(session, str) else None
    chunks = session if spool is None else _read_spool(spool, probe)
    merger = obs_stream.PayloadChunkMerger(parent)
    for chunk in chunks:
        probe.add_count("chunks_merged")
        with probe.stage("merge_chunks"):
            merger.merge(chunk)
    if not merger.finished:
        where = spool if spool is not None else "in memory"
        raise ParallelExecutionError(
            f"chunk stream of job {index} ({where}) ended before its final "
            "chunk (worker died mid-capture?)"
        )
    if spool is not None:
        os.remove(spool)


@contextmanager
def _child_import_path() -> Iterator[None]:
    """Make ``repro`` importable in spawned children via ``PYTHONPATH``.

    ``spawn`` children start a fresh interpreter that inherits the
    environment but not the parent's ``sys.path`` edits; prepending this
    package's source root covers parents that imported ``repro`` through a
    path hack rather than an install.
    """
    src = str(pathlib.Path(__file__).resolve().parents[2])
    old = os.environ.get("PYTHONPATH")
    if old is None or src not in old.split(os.pathsep):
        os.environ["PYTHONPATH"] = src if old is None else os.pathsep.join([src, old])
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = old


def run_jobs(
    jobs: Sequence[WorkerJob],
    workers: int = 0,
    stream: StreamConfig | None = None,
) -> list:
    """Run jobs and return their results in submission order.

    ``workers=0`` runs inline; ``workers>0`` uses that many ``spawn``
    worker processes.  When an observation session is active, every job
    runs in an isolated session whose chunk stream the parent folds back
    in submission order, so the exported trace/metrics/series are
    identical regardless of ``workers``.

    Without a :class:`StreamConfig` the chunks travel in memory.  With
    one, they are spooled through disk instead: worker peak RSS is
    O(spill bound), the parent merges O(chunk) at a time, and workers
    heartbeat their progress — all while producing the very same bytes
    (docs/OBSERVABILITY.md §v4).
    """
    jobs = list(jobs)
    if workers < 0:
        raise ParallelExecutionError(f"workers must be >= 0, got {workers}")
    if not jobs:
        return []
    parent = obs_trace.recorder()
    observe = parent is not None
    bucket_seconds = parent.series.bucket_seconds if observe else DEFAULT_BUCKET_SECONDS
    probe = obs_stream.NULL_PROBE
    if stream is not None and stream.probe is not None:
        probe = stream.probe
    # The probe stays in the parent; jobs get a picklable copy without it.
    cfg = None if stream is None else replace(stream, probe=None)
    args = (observe, bucket_seconds, cfg)  # _execute's trailing arguments
    results: list = []

    # Fold each session the moment its job (in submission order)
    # completes — later workers keep running while earlier chunks fold
    # in.  A retried job rewrites its spool from scratch, so a
    # half-written spool from a dead worker is replaced, never merged.
    def on_result(index: int, outcome) -> None:
        result, session, stats = outcome
        probe.add_worker(stats)
        if session is not None:
            _fold_session(parent, index, session, probe)
        results.append(result)

    if workers == 0:
        _run_inline(jobs, parent, args, on_result, probe)
    else:
        shipped = [job.shippable() for job in jobs]
        with _child_import_path():
            _run_with_worker_recovery(
                len(shipped),
                lambda pool, i: pool.submit(_execute, shipped[i], i, *args),
                lambda i: f"{shipped[i].spec.describe()} (protocol {shipped[i].protocol!r})",
                workers,
                on_result,
                progress_dir=None if cfg is None else cfg.base() / "progress",
            )
    probe.sample_rss("parent")
    return results


def _run_inline(
    jobs: list[WorkerJob],
    parent,
    args: tuple,
    on_result: Callable[[int, object], None],
    probe,
) -> None:
    """Run jobs in this process, each in an isolated observation session.

    The caller's session is stopped around each job (the job body starts
    its own) and resumed before the job's stream folds back in, so a
    failing job raises its original exception with the caller's session
    reinstalled.
    """
    for index, job in enumerate(jobs):
        if parent is not None:
            obs_trace.stop()
        try:
            with probe.stage("execute"):
                outcome = _execute(job, index, *args)
        finally:
            if parent is not None:
                obs_trace.resume(parent)
        on_result(index, outcome)


#: Placeholder for a job whose outcome has not arrived yet (an
#: identity-checked sentinel, distinct from any value a job returns).
_UNSET = object()


def _heartbeat_evidence(progress_dir) -> str:
    """Which jobs started but never reported done, per their heartbeats.

    With a :class:`StreamConfig`, jobs append heartbeats under
    ``progress/``; when a worker dies, the jobs whose files end without a
    ``done`` record are the ones that were on the dead worker — the closest thing to a crash
    log a vanished process leaves behind.
    """
    if progress_dir is None or not pathlib.Path(progress_dir).exists():
        return ""
    beats = obs_stream.read_heartbeats(progress_dir)
    lost = []
    for index in sorted(beats):
        statuses = {beat.get("status") for beat in beats[index]}
        if "start" in statuses and "done" not in statuses:
            last = beats[index][-1]
            scenario = next(
                (b.get("scenario") for b in beats[index] if b.get("scenario")), "?"
            )
            lost.append(
                f"job {index} ({scenario}) last heartbeat "
                f"status={last.get('status')!r}"
            )
    return "; ".join(lost)


def _run_with_worker_recovery(
    n_jobs: int,
    submit_one: Callable,
    describe_job: Callable[[int], str],
    workers: int,
    on_result: Callable[[int, object], None],
    progress_dir=None,
) -> None:
    """Run one task per job index on spawn pools, surviving worker deaths.

    The exception contract ``run_jobs`` promises:

    * ``KeyboardInterrupt``/``SystemExit`` re-raise untouched — an
      interrupt is the *user's* signal, never a job failure to wrap;
    * an exception raised *inside* a job (the worker survives, the future
      carries the error) is a deterministic job failure — typed
      :class:`ParallelExecutionError` naming the job, no retry;
    * :class:`BrokenProcessPool` means a worker *process died* (OOM kill,
      segfault, ``os._exit``).  The job it broke on is re-submitted to a
      rebuilt pool with a budget of :data:`WORKER_DEATH_RETRY_LIMIT`
      implications; a job that keeps killing workers is quarantined with a
      typed error carrying the heartbeat evidence, because retrying
      deterministic poison forever just burns processes.

    Completed outcomes are emitted through ``on_result`` in strict
    submission order (later results wait for earlier holes), so callers
    can merge observability incrementally and still get byte-identical
    exports regardless of worker deaths or retries.
    """
    # Imported here: a serial (``workers=0``) run never loads them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("spawn")
    outcomes: list = [_UNSET] * n_jobs
    strikes: dict[int, int] = {}
    emitted = 0

    def flush() -> None:
        nonlocal emitted
        while emitted < n_jobs and outcomes[emitted] is not _UNSET:
            on_result(emitted, outcomes[emitted])
            outcomes[emitted] = None  # emitted; drop the reference
            emitted += 1

    pending = list(range(n_jobs))
    while pending:
        broken: tuple[int, BaseException] | None = None
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = {index: submit_one(pool, index) for index in pending}
            for index in pending:
                if broken is not None:
                    # The pool is already broken; harvest whatever finished
                    # before the death so survivors are not re-run.
                    future = futures[index]
                    if future.done() and future.exception() is None:
                        outcomes[index] = future.result()
                    continue
                try:
                    outcomes[index] = futures[index].result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BrokenProcessPool as exc:
                    broken = (index, exc)
                except ParallelExecutionError:
                    raise
                except Exception as exc:
                    raise ParallelExecutionError(
                        f"job failed for scenario {describe_job(index)}: {exc!r}"
                    ) from exc
        flush()
        if broken is None:
            return
        suspect, cause = broken
        strikes[suspect] = strikes.get(suspect, 0) + 1
        if strikes[suspect] >= WORKER_DEATH_RETRY_LIMIT:
            evidence = _heartbeat_evidence(progress_dir)
            suffix = f"; heartbeat evidence: {evidence}" if evidence else ""
            raise ParallelExecutionError(
                f"worker process died {strikes[suspect]} times running scenario "
                f"{describe_job(suspect)}; quarantining the job as poison "
                f"instead of retrying (cause: {cause!r}){suffix}"
            ) from cause
        pending = [index for index in pending if outcomes[index] is _UNSET]
