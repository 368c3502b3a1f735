"""Scalar reference implementation of the what-if replay (test oracle).

These are the per-record / per-mini-window loops the NumPy kernels in
:mod:`repro.costmodel.kernels` replaced, kept verbatim so the kernel and
replay equivalence properties (``test_replay_kernels.py``) and the perf
bench (``benchmarks/bench_perf_replay.py``) have a slow, obviously-correct
twin to compare against bit for bit.  Library code never imports this
module: ``src/`` holds exactly one replay program.

:func:`replay` is a whole scalar :class:`~repro.costmodel.replay.QueryReplay`
built on the library's *fitted* models — it reads the query replay's gap,
latency and cluster models and ends in
:meth:`~repro.costmodel.clusters.ClusterCountPredictor.predict_from_concurrency`,
so only the loops differ from the library path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.simtime import HOUR, Window, hour_index
from repro.common.stats import percentile
from repro.costmodel.clusters import MINI_WINDOW_SECONDS
from repro.costmodel.gaps import CHAIN_WINDOW_SECONDS, GapModel
from repro.costmodel.replay import QueryReplay, ReplayResult
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord


@dataclass
class GapObservation:
    """The replay-relevant structure of one query's arrival."""

    record: QueryRecord
    chained: bool
    #: For chained queries: seconds between predecessor end and this arrival.
    lag_after_predecessor: float = 0.0


def classify(model: GapModel, records: list[QueryRecord]) -> list[GapObservation]:
    """Label each record chained/independent with its chain lag."""
    ordered = sorted(records, key=lambda r: r.arrival_time)
    out: list[GapObservation] = []
    for i, record in enumerate(ordered):
        chained = False
        lag = 0.0
        if i > 0:
            prev = ordered[i - 1]
            observed_lag = record.arrival_time - prev.end_time
            flag_says = model.use_flags and record.chained
            detector_says = (
                0.0 <= observed_lag <= CHAIN_WINDOW_SECONDS
                and model.is_dependent_pair(prev.template_hash, record.template_hash)
            )
            if flag_says or detector_says:
                chained = True
                if 0.0 <= observed_lag <= CHAIN_WINDOW_SECONDS:
                    lag = observed_lag
                else:
                    lag = model._pair_lags.get(
                        (prev.template_hash, record.template_hash), 5.0
                    )
        out.append(GapObservation(record, chained, lag))
    return out


def classify_with_arrays(
    model: GapModel, records: list[QueryRecord]
) -> list[GapObservation]:
    """The library's :meth:`GapModel.classify_arrays`, in :func:`classify`'s
    shape — so per-record classification tests exercise library code."""
    ordered = sorted(records, key=lambda r: r.arrival_time)
    chained, lags = model.classify_arrays(
        np.asarray([r.arrival_time for r in ordered], dtype=np.float64),
        np.asarray([r.end_time for r in ordered], dtype=np.float64),
        [r.template_hash for r in ordered],
        np.asarray([r.chained for r in ordered], dtype=bool),
    )
    return [
        GapObservation(record, bool(c), float(lag))
        for record, c, lag in zip(ordered, chained, lags)
    ]


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (sorted) possibly-overlapping busy intervals.

    Degenerate inputs are part of the contract — window clipping yields
    empty and touching spans — so this must agree with the vectorized
    kernel (:func:`repro.costmodel.kernels.merge_intervals`) on:

    * the empty set (``[]`` in, ``[]`` out);
    * zero-length ``(t, t)`` spans — they seed a group, and a later span
      starting exactly at ``t`` joins it (the group test is ``start <=
      prev_end``, matching the kernel's strict ``>`` group-break);
    * exactly-touching endpoints — ``(a, b), (b, c)`` merges to ``(a, c)``;
    * contained spans — a span ending before the running group end must
      not shrink it.
    """
    merged: list[tuple[float, float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            if end > prev_end:
                merged[-1] = (prev_start, end)
        else:
            merged.append((start, end))
    return merged


def concurrency_profile(
    intervals: list[tuple[float, float]], start: float, end: float, step: float
) -> np.ndarray:
    """Scalar reference for :func:`repro.costmodel.clusters.concurrency_profile`."""
    n = max(1, int(math.ceil((end - start) / step)))
    busy = np.zeros(n)
    for begin, finish in intervals:
        lo = max(begin, start)
        hi = min(finish, end)
        if hi <= lo:
            continue
        first = int((lo - start) // step)
        last = int((hi - start) // step)
        for w in range(first, min(last, n - 1) + 1):
            w_start = start + w * step
            w_end = w_start + step
            busy[w] += max(0.0, min(hi, w_end) - max(lo, w_start))
    return busy / step


def counterfactual_timeline(
    query_replay: QueryReplay,
    records: list[QueryRecord],
    config: WarehouseConfig,
    window: Window,
) -> tuple[list[tuple[float, float]], list[float]]:
    observations = classify(query_replay.gap_model, records)
    intervals: list[tuple[float, float]] = []
    latencies: list[float] = []
    prev_end: float | None = None
    for observation in observations:
        latency = query_replay.latency_model.rescale(observation.record, config.size)
        if observation.chained and prev_end is not None:
            arrival = prev_end + observation.lag_after_predecessor
        else:
            arrival = observation.record.arrival_time
        arrival = max(arrival, window.start)
        end = min(arrival + latency, window.end)
        if end > arrival:
            intervals.append((arrival, end))
        latencies.append(latency)
        prev_end = arrival + latency
    intervals.sort()
    return intervals, latencies


def activation_bursts(
    intervals: list[tuple[float, float]], config: WarehouseConfig, window: Window
) -> list[tuple[float, float]]:
    """Merge busy intervals into billable activation bursts."""
    if not intervals:
        return []
    suspend = config.auto_suspend_seconds
    if suspend <= 0:
        # Never auto-suspends: active from first arrival to window end.
        return [(intervals[0][0], window.end)]
    bursts: list[tuple[float, float]] = []
    burst_start, busy_end = intervals[0]
    for start, end in intervals[1:]:
        if start <= busy_end + suspend:
            busy_end = max(busy_end, end)
        else:
            bursts.append((burst_start, min(busy_end + suspend, window.end)))
            burst_start, busy_end = start, end
    bursts.append((burst_start, min(busy_end + suspend, window.end)))
    return bursts


def coverage(
    spans: list[tuple[float, float]], window: Window, n_windows: int
) -> np.ndarray:
    """Seconds of each mini-window covered by the (disjoint) spans."""
    covered = np.zeros(n_windows)
    for span_start, span_end in spans:
        first = int((span_start - window.start) // MINI_WINDOW_SECONDS)
        last = int((span_end - window.start) // MINI_WINDOW_SECONDS)
        for w in range(max(first, 0), min(last, n_windows - 1) + 1):
            w_start = window.start + w * MINI_WINDOW_SECONDS
            w_end = w_start + MINI_WINDOW_SECONDS
            covered[w] += max(0.0, min(span_end, w_end) - max(span_start, w_start))
    return covered


def hourly_credits(
    cluster_seconds_per_window: np.ndarray, window: Window, rate: float
) -> dict[int, float]:
    """Per-hour credit totals (scalar reference for the bincount kernel)."""
    hourly: dict[int, float] = {}
    for w in range(len(cluster_seconds_per_window)):
        if cluster_seconds_per_window[w] <= 0:
            continue
        h = hour_index(window.start + w * MINI_WINDOW_SECONDS)
        hourly[h] = hourly.get(h, 0.0) + cluster_seconds_per_window[w] / HOUR * rate
    return hourly


def bill(
    query_replay: QueryReplay,
    bursts: list[tuple[float, float]],
    intervals: list[tuple[float, float]],
    config: WarehouseConfig,
    window: Window,
) -> tuple[float, float, dict[int, float]]:
    rate = config.size.credits_per_hour
    n_windows = max(1, int(math.ceil(window.duration / MINI_WINDOW_SECONDS)))
    predicted = query_replay.cluster_predictor.predict_from_concurrency(
        concurrency_profile(intervals, window.start, window.end, MINI_WINDOW_SECONDS),
        config,
    )
    burst_overlap = coverage(bursts, window, n_windows)
    busy_overlap = coverage(merge_intervals(intervals), window, n_windows)
    if len(predicted) < n_windows:  # pad defensively
        predicted = np.pad(predicted, (0, n_windows - len(predicted)))
    base_clusters = float(max(config.min_clusters, 1))
    clusters = np.maximum(predicted, base_clusters)
    cluster_seconds_per_window = (
        base_clusters * burst_overlap
        + (clusters - base_clusters) * np.minimum(busy_overlap, burst_overlap)
    )
    cluster_seconds = float(cluster_seconds_per_window.sum())
    credits = cluster_seconds / HOUR * rate
    # 60 s minimum per activation (the burst's first cluster start).
    for burst_start, burst_end in bursts:
        duration = burst_end - burst_start
        if duration < MINIMUM_BILLED_SECONDS:
            credits += (MINIMUM_BILLED_SECONDS - duration) / HOUR * rate
            cluster_seconds += MINIMUM_BILLED_SECONDS - duration
    hourly = hourly_credits(cluster_seconds_per_window, window, rate)
    return credits, cluster_seconds, hourly


def replay(
    query_replay: QueryReplay,
    records: list[QueryRecord],
    config: WarehouseConfig,
    window: Window,
) -> ReplayResult:
    """Scalar twin of ``query_replay.replay(records, config, window)``."""
    if not records:
        return ReplayResult(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)
    intervals, latencies = counterfactual_timeline(query_replay, records, config, window)
    bursts = activation_bursts(intervals, config, window)
    credits, cluster_seconds, hourly = bill(query_replay, bursts, intervals, config, window)
    active_seconds = sum(end - start for start, end in bursts)
    n_queries = len(latencies)
    return ReplayResult(
        credits=credits,
        active_seconds=active_seconds,
        cluster_seconds=cluster_seconds,
        n_queries=n_queries,
        n_bursts=len(bursts),
        avg_latency=float(np.mean(latencies)) if n_queries else 0.0,
        p99_latency=percentile(latencies, 99),
        hourly_credits=hourly,
    )
