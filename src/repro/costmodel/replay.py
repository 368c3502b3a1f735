"""Analytical query replay (§5.1) — the what-if engine of the cost model.

Given a window of telemetry and a *hypothetical* warehouse configuration
(usually the customer's original settings, for the without-Keebo estimate),
the replay walks the workload timeline and computes what the CDW would have
billed:

1. every query's execution time is rescaled to the hypothetical size by the
   latency model; chained arrivals shift with their predecessor's
   counterfactual completion (gap model), independent arrivals keep their
   original timestamps;
2. busy intervals are merged into *activation bursts*: the warehouse stays
   billable through gaps shorter than the auto-suspend interval and for one
   auto-suspend tail after each burst (``auto_suspend = 0`` means the
   warehouse never suspends and bills to the end of the window);
3. the cluster-count predictor estimates how many clusters would have been
   running in each mini-window, bounded by the hypothetical min/max;
4. credits = Σ (clusters × burst-overlap × rate), plus the 60 s minimum for
   bursts shorter than a minute.

The result also carries counterfactual latency statistics so the smart
model can ask "what would this action do to performance" (§4.3).

The replay runs continuously at fleet scale, so the hot steps are
vectorized NumPy kernels (:mod:`repro.costmodel.kernels`), and one fetched
window answers many configs: a :class:`ReplayHistory` computes the
config-independent prep once and the size-dependent stages (step 1 and the
busy coverage) once per warehouse size, so a replay pays only steps 2–4
for its own config.  This module is the one what-if program in the
library: the guardrail, the savings estimate and the live ledger's
per-tick projection (:class:`~repro.core.ledger.LiveLedger`) all replay
through :class:`QueryReplay`.  The pre-vectorization loops live
on only as a test oracle (``tests/props/replay_oracle.py``), which
``tests/props/test_replay_kernels.py`` holds bit-identical to this path.
See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.simtime import HOUR, Window
from repro.common.stats import percentile
from repro.obs import trace as obs
from repro.costmodel import kernels
from repro.costmodel.clusters import MINI_WINDOW_SECONDS, ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.kernels import IntervalArrays
from repro.costmodel.latency import LatencyScalingModel
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

#: Buckets for the what-if active-fraction histogram: coverage is a ratio
#: in [0, 1], so the default (seconds-scaled) bucket boundaries fit badly.
_COVERAGE_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Enum-member -> float(size.value), so column extraction never touches the
#: (slow) Enum descriptor protocol per record.
_SIZE_VALUES = {size: float(size.value) for size in WarehouseSize}

#: The four float columns the timeline needs, pulled in one C-level pass.
_FLOAT_COLUMNS = operator.attrgetter(
    "arrival_time", "end_time", "execution_seconds", "cache_hit_ratio"
)


@dataclass
class ReplayResult:
    """Outcome of one what-if replay."""

    credits: float
    active_seconds: float
    cluster_seconds: float
    n_queries: int
    n_bursts: int
    avg_latency: float
    p99_latency: float
    hourly_credits: dict[int, float] = field(default_factory=dict)


def counterfactual_spans(
    raw_arrivals: np.ndarray,
    latencies: np.ndarray,
    chained: np.ndarray,
    lags: np.ndarray,
    window: Window,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counterfactual arrivals and the sorted busy spans they produce.

    Takes arrival-ordered columns and returns ``(shifted_arrivals, starts,
    ends)``: every arrival clipped to the window start, chained arrivals
    moved to their predecessor's counterfactual completion plus the chain
    lag, and the window-clipped non-empty spans sorted by ``(start, end)``.
    Only the chained-arrival recurrence — a genuinely sequential float
    chain whose rounding order is part of the contract — runs as a Python
    loop over the (sparse) chained indices.
    """
    arrivals = np.maximum(raw_arrivals, window.start)
    chained_idx = np.flatnonzero(chained)
    if chained_idx.size:
        shifted_arrivals = arrivals.tolist()
        latency_list = latencies.tolist()
        lag_list = lags.tolist()
        window_start = window.start
        for i in chained_idx.tolist():
            # prev_end + lag, clipped — the scalar loop's exact ops.
            arrival = (
                shifted_arrivals[i - 1] + latency_list[i - 1]
            ) + lag_list[i]
            shifted_arrivals[i] = (
                arrival if arrival >= window_start else window_start
            )
        arrivals = np.asarray(shifted_arrivals, dtype=np.float64)
    ends = np.minimum(arrivals + latencies, window.end)
    live = ends > arrivals
    starts = arrivals[live]
    finishes = ends[live]
    order = np.lexsort((finishes, starts))
    return arrivals, starts[order], finishes[order]


def bill(
    predicted: np.ndarray,
    burst_overlap: np.ndarray,
    busy_overlap: np.ndarray,
    shortfalls: Iterable[float],
    config: WarehouseConfig,
    window: Window,
) -> tuple[float, float, dict[int, float]]:
    """``(credits, cluster_seconds, hourly_credits)`` from per-mini-window
    coverage.

    ``predicted`` is the cluster count per mini-window, ``burst_overlap``
    and ``busy_overlap`` the seconds of each mini-window covered by
    activation bursts and by merged busy intervals, and ``shortfalls`` the
    ``60 s - duration`` top-ups of the sub-minute bursts, in burst order.
    """
    rate = config.size.credits_per_hour
    # Extra clusters only bill while there is concurrent work for them:
    # cluster 1 stays up through idle gaps (until suspend), but scale-out
    # clusters retire shortly after the queue drains, so their billed
    # time tracks the *busy* coverage, not the whole activation burst.
    base_clusters = float(max(config.min_clusters, 1))
    clusters = np.maximum(predicted, base_clusters)
    cluster_seconds_per_window = (
        base_clusters * burst_overlap
        + (clusters - base_clusters) * np.minimum(busy_overlap, burst_overlap)
    )
    cluster_seconds = float(cluster_seconds_per_window.sum())
    credits = cluster_seconds / HOUR * rate
    # 60 s minimum per activation (the burst's first cluster start).
    for shortfall in shortfalls:
        credits += shortfall / HOUR * rate
        cluster_seconds += shortfall
    hourly = kernels.hourly_credit_sums(
        cluster_seconds_per_window, window.start, MINI_WINDOW_SECONDS, HOUR, rate
    )
    return credits, cluster_seconds, hourly


@dataclass(frozen=True)
class _SizeStage:
    """The replay stages that depend on the config only through its size."""

    #: Window-clipped counterfactual busy spans, sorted by ``(start, end)``.
    starts: np.ndarray
    ends: np.ndarray
    #: Average concurrently busy spans per mini-window.
    concurrency: np.ndarray
    #: Seconds of each mini-window covered by the merged busy intervals.
    busy_overlap: np.ndarray
    n_queries: int
    avg_latency: float
    p99_latency: float


class ReplayHistory:
    """One window of QUERY_HISTORY, prepared once for replays under many configs.

    Built by :meth:`QueryReplay.history` (the cost model's
    :meth:`~repro.costmodel.model.WarehouseCostModel.snapshot` fetches the
    window once and wraps it).  Each stage is computed on first use and
    kept for the life of the object:

    * the config-independent prep — arrival-ordered columns, chain
      classification, per-record gammas;
    * per :class:`~repro.warehouse.types.WarehouseSize`, the size stage —
      rescaled latencies, counterfactual spans, merged busy coverage,
      concurrency profile, mean and p99 latency.

    A replay then runs only the per-config tail: activation bursts, their
    coverage, the cluster-count prediction and :func:`bill`.  The caches
    live exactly as long as the question: a tick's guardrail builds one
    history, replays the current config and every candidate from it, reads
    the original size's stage for its latency reference, and drops it.
    The history reads its models lazily, so refitting them between
    replays of one history is not supported; build a new one after a fit.
    The kernels never write into the cached arrays (they allocate fresh
    outputs), which is what makes sharing them across replays safe.
    """

    def __init__(
        self, query_replay: "QueryReplay", records: list[QueryRecord], window: Window
    ):
        self.query_replay = query_replay
        self.records = records
        self.window = window
        self._prep: tuple | None = None
        self._sizes: dict[WarehouseSize, _SizeStage] = {}

    def __len__(self) -> int:
        return len(self.records)

    def cost(self, config: WarehouseConfig) -> ReplayResult:
        """What-if: this window replayed under ``config``."""
        return self.query_replay.replay(self, config, self.window)

    def _prepared(self) -> tuple:
        """Config-independent prep: columns, chain flags and lags, gammas."""
        if self._prep is None:
            columns = _columns(self.records)
            raw_arrivals, end_times, _, _, _, chained_flags, templates = columns
            chained, lags = self.query_replay.gap_model.classify_arrays(
                raw_arrivals, end_times, templates, chained_flags
            )
            gammas = self.query_replay.latency_model.gamma_array(templates)
            self._prep = (columns, chained, lags, gammas)
        return self._prep

    def size_stage(self, size: WarehouseSize) -> _SizeStage:
        """The size-dependent stages under ``size``, computed once per size."""
        stage = self._sizes.get(size)
        if stage is None:
            stage = self._sizes[size] = self._compute_size_stage(size)
        return stage

    def _compute_size_stage(self, size: WarehouseSize) -> _SizeStage:
        columns, chained, lags, gammas = self._prepared()
        raw_arrivals, _, exec_seconds, cache_hits, size_values, _, templates = columns
        window = self.window
        latencies = self.query_replay.latency_model.rescale_batch(
            templates, size_values, cache_hits, exec_seconds, size, gammas=gammas
        )
        _, starts, ends = counterfactual_spans(raw_arrivals, latencies, chained, lags, window)
        # The spans are already clipped to the window, so this is the
        # concurrency profile's overlap pass over them, sharing one
        # expansion with the merged busy intervals.
        spans_overlap, busy_overlap = kernels.bucketed_overlaps(
            ((starts, ends), kernels.merge_intervals(starts, ends)),
            window.start, MINI_WINDOW_SECONDS, _n_mini_windows(window),
        )
        n_queries = len(latencies)
        return _SizeStage(
            starts=starts,
            ends=ends,
            concurrency=spans_overlap / MINI_WINDOW_SECONDS,
            busy_overlap=busy_overlap,
            n_queries=n_queries,
            avg_latency=float(np.mean(latencies)) if n_queries else 0.0,
            p99_latency=percentile(latencies, 99),
        )


def _n_mini_windows(window: Window) -> int:
    return max(1, int(math.ceil(window.duration / MINI_WINDOW_SECONDS)))


def _columns(
    records: list[QueryRecord],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Arrival-ordered replay columns extracted in one pass."""
    ordered = sorted(records, key=operator.attrgetter("arrival_time"))
    n = len(ordered)
    # One flattened fromiter for all four float columns beats one pass
    # per column; attrgetter + map keeps the extraction loop in C.
    flat = np.fromiter(
        itertools.chain.from_iterable(map(_FLOAT_COLUMNS, ordered)),
        dtype=np.float64,
        count=4 * n,
    ).reshape(n, 4)
    # Enum attribute access per record is measurably slow; map the enum
    # members to their float values through a precomputed dict instead.
    size_values = np.fromiter(
        map(
            _SIZE_VALUES.__getitem__,
            map(operator.attrgetter("warehouse_size"), ordered),
        ),
        dtype=np.float64,
        count=n,
    )
    chained_flags = np.fromiter(
        map(operator.attrgetter("chained"), ordered), dtype=bool, count=n
    )
    templates = list(map(operator.attrgetter("template_hash"), ordered))
    return (
        np.ascontiguousarray(flat[:, 0]),
        np.ascontiguousarray(flat[:, 1]),
        np.ascontiguousarray(flat[:, 2]),
        np.ascontiguousarray(flat[:, 3]),
        size_values,
        chained_flags,
        templates,
    )


@dataclass
class QueryReplay:
    """Replays telemetry under a hypothetical configuration."""

    latency_model: LatencyScalingModel
    gap_model: GapModel
    cluster_predictor: ClusterCountPredictor
    #: Bumped whenever the three models change in place (a cost-model fit
    #: or restore), so a result kept across calls can tell it is stale.
    fit_generation: int = 0

    def history(self, records: list[QueryRecord], window: Window) -> ReplayHistory:
        """``records`` (the QUERY_HISTORY of ``window``) prepared for replays."""
        return ReplayHistory(self, records, window)

    def replay(
        self,
        records: list[QueryRecord] | ReplayHistory,
        config: WarehouseConfig,
        window: Window,
    ) -> ReplayResult:
        """What-if of ``window`` under ``config``.

        ``records`` is either the window's raw QUERY_HISTORY rows or a
        :class:`ReplayHistory` of them, whose cached stages the replay
        reuses; a history must come from this replay and this window.
        """
        if isinstance(records, ReplayHistory):
            history = records
            if history.query_replay is not self or history.window != window:
                raise ConfigurationError(
                    "ReplayHistory replayed by another QueryReplay or over another window"
                )
        else:
            history = self.history(records, window)
        rec = obs.recorder()
        if rec is None or not history.records:
            # Disabled-observability fast path: no span bookkeeping and no
            # config.describe() dict per what-if call (the smart model makes
            # thousands per run — bench_fig6_overhead.py measures this).
            # An empty window is not observed either.
            return self.tail(history, config)
        with rec.span(
            "costmodel.replay", window.end, config=config.describe()
        ) as sp:
            result = self.tail(history, config)
            self._observe(sp, result, window)
        return result

    def tail(self, history: ReplayHistory, config: WarehouseConfig) -> ReplayResult:
        """The per-config tail over the history's cached size stage.

        This is :meth:`replay` without its span: callers that must not add
        trace records (the live ledger's per-tick projection) call it
        directly on a history of this replay.
        """
        if not history.records:
            return ReplayResult(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)
        window = history.window
        stage = history.size_stage(config.size)
        burst_starts, burst_ends = self._activation_bursts(
            stage.starts, stage.ends, config, window
        )
        predicted = self.cluster_predictor.predict_from_concurrency(stage.concurrency, config)
        burst_overlap = kernels.bucketed_overlap(
            burst_starts, burst_ends, window.start, MINI_WINDOW_SECONDS,
            _n_mini_windows(window),
        )
        durations = [
            end - start for start, end in zip(burst_starts.tolist(), burst_ends.tolist())
        ]
        credits, cluster_seconds, hourly = bill(
            predicted,
            burst_overlap,
            stage.busy_overlap,
            [MINIMUM_BILLED_SECONDS - d for d in durations if d < MINIMUM_BILLED_SECONDS],
            config,
            window,
        )
        return ReplayResult(
            credits=credits,
            active_seconds=sum(durations),
            cluster_seconds=cluster_seconds,
            n_queries=stage.n_queries,
            n_bursts=len(durations),
            avg_latency=stage.avg_latency,
            p99_latency=stage.p99_latency,
            hourly_credits=hourly,
        )

    @staticmethod
    def _observe(sp, result: ReplayResult, window: Window) -> None:
        """Replay coverage and counterfactual-timeline stats, when recording."""
        rec = obs.recorder()
        if rec is None:
            return
        coverage = result.active_seconds / window.duration if window.duration > 0 else 0.0
        sp.set(
            n_queries=result.n_queries,
            n_bursts=result.n_bursts,
            active_seconds=result.active_seconds,
            credits=result.credits,
            coverage=coverage,
        )
        rec.counter("repro.costmodel.replays").inc(time=window.end)
        rec.counter("repro.costmodel.replayed_queries").inc(
            result.n_queries, time=window.end
        )
        rec.histogram("repro.costmodel.replay_active_fraction", _COVERAGE_BUCKETS).observe(
            coverage, time=window.end
        )
        rec.histogram("repro.costmodel.replay_p99_latency").observe(
            result.p99_latency, time=window.end
        )

    # -------------------------------------------------------------- steps
    @staticmethod
    def _activation_bursts(
        starts: np.ndarray, ends: np.ndarray, config: WarehouseConfig, window: Window
    ) -> IntervalArrays:
        """Merge sorted busy spans into billable activation bursts."""
        if starts.size == 0:
            return starts[:0], ends[:0]
        suspend = config.auto_suspend_seconds
        if suspend <= 0:
            # Never auto-suspends: active from first arrival to window end.
            return starts[:1], np.asarray([window.end], dtype=np.float64)
        return kernels.activation_bursts(starts, ends, suspend, window.end)
