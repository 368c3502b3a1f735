"""Incremental what-if ledger: O(delta) streaming cost model.

A :class:`~repro.costmodel.replay.ReplayHistory` shares the replay's prep
across the configs asked about *one* fetched window, but in a streaming
setting every new QUERY_HISTORY row makes a new window, so each savings
refresh would pay a full-window recompute.  This module maintains
the what-if ledger *online*: :class:`IncrementalReplay` ingests one row at a
time and keeps, per candidate configuration, enough folded state that the
next :class:`~repro.costmodel.replay.ReplayResult` costs O(delta + buckets)
instead of O(window).

The ledger is bit-identical to a full
:class:`~repro.costmodel.replay.QueryReplay` over the same records and
window — the property ``tests/props/test_incremental_replay.py`` locks in
under arbitrary interleavings of append / out-of-order insert / config
change / model refit.  The trick is a *frozen-prefix / live-suffix* fold
over the sorted counterfactual spans:

* spans are kept sorted by ``(start, end)`` — the order
  ``np.lexsort((finishes, starts))`` produces in the full replay.  Every
  downstream kernel depends only on the sorted *content* (identical values
  commute in float sums), so maintaining the same sorted multiset suffices;
* the per-mini-window coverage sums (concurrency profile, merged-busy
  overlap, burst overlap) are folded for a frozen prefix of spans in span
  order.  ``np.add.at`` applies pair updates sequentially, so accumulating
  the live suffix *into a copy of the prefix sums* reproduces, bit for bit,
  one :func:`~repro.costmodel.kernels.bucketed_overlap` call over all spans
  (see :func:`~repro.costmodel.kernels.overlap_into`);
* merged intervals and activation bursts are folded the same way: closed
  groups are final, the one *open* group at the fold boundary is re-merged
  with the suffix on every materialization.

Only the folding lives here.  Rebuilds call the full replay's own
:func:`~repro.costmodel.replay.counterfactual_spans`, single-row inserts
its latency model's ``rescale``, and every materialization ends in
:func:`~repro.costmodel.replay.bill` — so the what-if algorithm itself is
written once, in :mod:`repro.costmodel.replay`.

Appends in arrival order are O(1) amortized plus an O(buckets + suffix)
materialization; out-of-order inserts that land inside the live suffix stay
cheap, and anything that touches the frozen prefix (deep inserts, model
refits) marks the per-config state dirty and amortizes one vectorized
rebuild.  Exactness therefore never depends on which path ran — only the
*cost* does.

Durability: the canonical :meth:`IncrementalReplay.state_dict` (window,
cursor counts, a checksum over ingested row ids) round-trips through
``repro.durability`` byte-identically; the row *contents* are recovered by
re-feeding from telemetry, which by the exactness property reconstructs an
equivalent ledger regardless of the original interleaving.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.simtime import Window
from repro.common.stats import percentile
from repro.costmodel import kernels
from repro.costmodel.clusters import MINI_WINDOW_SECONDS, ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import (
    _SIZE_VALUES,
    QueryReplay,
    ReplayResult,
    bill,
    counterfactual_spans,
)
from repro.durability.codec import (
    decode_window,
    encode_window,
    require_keys,
    state_checksum,
)
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord

#: Live-suffix length that triggers folding spans into the frozen prefix.
FOLD_TRIGGER = 256
#: Suffix length kept live after a fold (headroom for out-of-order inserts).
FOLD_KEEP = 64
#: Per-config states kept resident (least recently used evicted first).
MAX_CONFIGS = 16


class _Buf:
    """Amortized-O(1) append / insert numpy column."""

    __slots__ = ("data", "n")

    def __init__(self, dtype: type) -> None:
        self.data = np.empty(16, dtype=dtype)
        self.n = 0

    def view(self) -> np.ndarray:
        return self.data[: self.n]

    def _grow(self, extra: int = 1) -> None:
        need = self.n + extra
        if need <= self.data.size:
            return
        fresh = np.empty(max(16, 2 * need), dtype=self.data.dtype)
        fresh[: self.n] = self.view()
        self.data = fresh

    def insert(self, idx: int, value: float) -> None:
        self._grow(1)
        hi = self.n
        self.data[idx + 1 : hi + 1] = self.data[idx:hi]
        self.data[idx] = value
        self.n += 1

    def set(self, idx: int, value: float) -> None:
        self.data[idx] = value

    def get(self, idx: int) -> float:
        return self.data[idx]

    def delete(self, idx: int) -> None:
        hi = self.n
        self.data[idx : hi - 1] = self.data[idx + 1 : hi]
        self.n -= 1

    def load(self, values: np.ndarray) -> None:
        self.data = np.array(values, dtype=self.data.dtype)
        self.n = int(values.size)


def _searchsorted_pair(
    starts: np.ndarray, ends: np.ndarray, start: float, end: float
) -> int:
    """Insertion index for ``(start, end)`` in arrays sorted by that pair."""
    lo = int(np.searchsorted(starts, start, side="left"))
    hi = int(np.searchsorted(starts, start, side="right"))
    if lo == hi:
        return lo
    return lo + int(np.searchsorted(ends[lo:hi], end, side="right"))


def _config_key(config: WarehouseConfig) -> tuple:
    return (
        config.size,
        float(config.auto_suspend_seconds),
        int(config.min_clusters),
        int(config.max_clusters),
        int(config.max_concurrency),
    )


def _merge_groups(
    starts: np.ndarray,
    ends: np.ndarray,
    open_group: tuple[float, float] | None,
    gap: float,
) -> tuple[list[tuple[float, float]], tuple[float, float] | None]:
    """Merge sorted spans into a running open group.

    A span joins the open group when it starts no later than ``gap`` after
    the group's end: ``gap = 0.0`` groups merged busy intervals (``x + 0.0``
    compares exactly like ``x``) and ``gap = suspend`` groups activation
    bursts.  Returns the groups the spans closed, in order, and the group
    left open.
    """
    closed: list[tuple[float, float]] = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        if open_group is not None and s <= open_group[1] + gap:
            if e > open_group[1]:
                open_group = (open_group[0], e)
        else:
            if open_group is not None:
                closed.append(open_group)
            open_group = (s, e)
    return closed, open_group


def _overlap_pairs(
    out: np.ndarray, pairs: list[tuple[float, float]], window: Window, n_windows: int
) -> None:
    """Accumulate ``(start, end)`` pairs' mini-window coverage into ``out``."""
    if not pairs:
        return
    arr = np.asarray(pairs, dtype=np.float64)
    kernels.overlap_into(
        out, np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1]),
        window.start, MINI_WINDOW_SECONDS, n_windows,
    )


class _ExactState:
    """Per-config folded state."""

    def __init__(self, config: WarehouseConfig, n_windows: int) -> None:
        self.config = config
        self.n_windows = n_windows
        self.lat = _Buf(np.float64)
        self.shifted = _Buf(np.float64)
        self.span_starts = _Buf(np.float64)
        self.span_ends = _Buf(np.float64)
        self.dirty = True
        self.frozen = 0
        self.conc_base = np.zeros(n_windows, dtype=np.float64)
        self.busy_base = np.zeros(n_windows, dtype=np.float64)
        self.burst_base = np.zeros(n_windows, dtype=np.float64)
        self.busy_open: tuple[float, float] | None = None
        self.burst_open: tuple[float, float] | None = None
        self.n_closed_bursts = 0
        # Literal int 0 so the first fold reproduces sum()'s `0 + d1` start.
        self.active_base: float = 0
        self.shortfall_base: list[float] = []

    # -------------------------------------------------------------- editing
    def insert_record(self, owner: "IncrementalReplay", k: int) -> None:
        """Splice record ``k`` (already in the shared columns) in."""
        if self.dirty:
            return
        lat_k = owner.latency_model.rescale(owner._records[k], self.config.size)
        self.lat.insert(k, lat_k)
        new = self._shifted_value(owner, k)
        self.shifted.insert(k, new)
        end = min(new + lat_k, owner.window.end)
        if end > new:
            self._insert_span(new, end)
        self._cascade(owner, k + 1)

    def _shifted_value(self, owner: "IncrementalReplay", j: int) -> float:
        window_start = owner.window.start
        if owner._chained.get(j) and j > 0:
            arrival = (
                float(self.shifted.get(j - 1)) + float(self.lat.get(j - 1))
            ) + float(owner._lags.get(j))
            return arrival if arrival >= window_start else window_start
        raw = float(owner._raw_arrivals.get(j))
        return raw if raw >= window_start else window_start

    def _cascade(self, owner: "IncrementalReplay", j: int) -> None:
        """Recompute shifted arrivals from ``j`` until the chain converges.

        The scalar recurrence matches the full replay's chained-arrival loop
        op for op; it stops at the first record whose shifted arrival comes
        out bit-equal to the stored value (identical inputs from there on,
        so everything downstream is identical too).
        """
        if self.dirty:
            return
        n = owner._n
        window_end = owner.window.end
        while j < n:
            new = self._shifted_value(owner, j)
            old = float(self.shifted.get(j))
            if new == old:
                break
            lat_j = float(self.lat.get(j))
            old_end = min(old + lat_j, window_end)
            if old_end > old:
                self._remove_span(old, old_end)
                if self.dirty:
                    return
            self.shifted.set(j, new)
            new_end = min(new + lat_j, window_end)
            if new_end > new:
                self._insert_span(new, new_end)
                if self.dirty:
                    return
            j += 1

    def _remove_span(self, start: float, end: float) -> None:
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        pos = _searchsorted_pair(starts, ends, start, end) - 1
        if pos < 0 or starts[pos] != start or ends[pos] != end:
            self.dirty = True
            return
        if pos < self.frozen:
            self.dirty = True
            return
        self.span_starts.delete(pos)
        self.span_ends.delete(pos)

    def _insert_span(self, start: float, end: float) -> None:
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        pos = _searchsorted_pair(starts, ends, start, end)
        if pos < self.frozen:
            self.dirty = True
            return
        self.span_starts.insert(pos, start)
        self.span_ends.insert(pos, end)

    # -------------------------------------------------------------- rebuild
    def rebuild(self, owner: "IncrementalReplay") -> None:
        """Vectorized from-scratch rebuild (the full replay's own ops)."""
        window = owner.window
        n = owner._n
        config = self.config
        self.n_windows = owner.n_windows
        if n == 0:
            self.lat.load(np.empty(0))
            self.shifted.load(np.empty(0))
            self.span_starts.load(np.empty(0))
            self.span_ends.load(np.empty(0))
        else:
            lat = owner.latency_model.rescale_batch(
                owner._templates,
                owner._size_values.view(),
                owner._cache_hits.view(),
                owner._exec_seconds.view(),
                config.size,
                gammas=owner._gammas.view(),
            )
            shifted, starts, ends = counterfactual_spans(
                owner._raw_arrivals.view(), lat, owner._chained.view(),
                owner._lags.view(), window,
            )
            self.lat.load(lat)
            self.shifted.load(shifted)
            self.span_starts.load(starts)
            self.span_ends.load(ends)
        self.frozen = 0
        self.conc_base = np.zeros(self.n_windows, dtype=np.float64)
        self.busy_base = np.zeros(self.n_windows, dtype=np.float64)
        self.burst_base = np.zeros(self.n_windows, dtype=np.float64)
        self.busy_open = None
        self.burst_open = None
        self.n_closed_bursts = 0
        self.active_base = 0
        self.shortfall_base = []
        self.dirty = False
        self.fold(owner)

    # ----------------------------------------------------------------- fold
    def fold(self, owner: "IncrementalReplay") -> None:
        """Advance the frozen prefix, leaving FOLD_KEEP spans live."""
        n_spans = self.span_starts.n
        if n_spans - self.frozen <= FOLD_TRIGGER:
            return
        new_frozen = n_spans - FOLD_KEEP
        window = owner.window
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        chunk_s = starts[self.frozen : new_frozen]
        chunk_e = ends[self.frozen : new_frozen]
        kernels.overlap_into(
            self.conc_base, chunk_s, chunk_e, window.start,
            MINI_WINDOW_SECONDS, self.n_windows,
        )
        # Merged busy intervals: close every group the chunk completes.
        closed, self.busy_open = _merge_groups(chunk_s, chunk_e, self.busy_open, 0.0)
        _overlap_pairs(self.busy_base, closed, window, self.n_windows)
        # Activation bursts (suspend <= 0 is materialized directly).
        suspend = self.config.auto_suspend_seconds
        if suspend > 0:
            closed, self.burst_open = _merge_groups(
                chunk_s, chunk_e, self.burst_open, suspend
            )
            closed_bursts = [(bs, min(be + suspend, window.end)) for bs, be in closed]
            _overlap_pairs(self.burst_base, closed_bursts, window, self.n_windows)
            for bs, be in closed_bursts:
                duration = be - bs
                self.active_base = self.active_base + duration
                if duration < MINIMUM_BILLED_SECONDS:
                    self.shortfall_base.append(MINIMUM_BILLED_SECONDS - duration)
            self.n_closed_bursts += len(closed_bursts)
        self.frozen = new_frozen

    # ------------------------------------------------------------- material
    def materialize(self, owner: "IncrementalReplay") -> ReplayResult:
        if self.dirty or self.n_windows != owner.n_windows:
            self.rebuild(owner)
        else:
            self.fold(owner)
        window = owner.window
        config = self.config
        n_queries = self.lat.n
        if n_queries == 0:
            return ReplayResult(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)
        n_windows = self.n_windows
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        suffix_s = starts[self.frozen :]
        suffix_e = ends[self.frozen :]
        # Concurrency profile: prefix sums + suffix pairs, then /step — the
        # same dividend values bucketed_overlap would produce over all spans.
        conc = self.conc_base.copy()
        kernels.overlap_into(
            conc, suffix_s, suffix_e, window.start, MINI_WINDOW_SECONDS, n_windows
        )
        predicted = owner.cluster_predictor.predict_from_concurrency(
            conc / MINI_WINDOW_SECONDS, config
        )
        # Merged busy coverage: closed prefix groups + re-merged open/suffix.
        tail_intervals, open_iv = _merge_groups(suffix_s, suffix_e, self.busy_open, 0.0)
        if open_iv is not None:
            tail_intervals.append(open_iv)
        busy_overlap = self.busy_base.copy()
        _overlap_pairs(busy_overlap, tail_intervals, window, n_windows)
        # Activation bursts.
        suspend = config.auto_suspend_seconds
        tail_bursts: list[tuple[float, float]] = []
        if suspend <= 0:
            if starts.size:
                tail_bursts = [(float(starts[0]), window.end)]
            burst_overlap = np.zeros(n_windows, dtype=np.float64)
            n_closed_bursts = 0
            active_seconds: float = 0
            shortfalls: list[float] = []
        else:
            closed, open_b = _merge_groups(suffix_s, suffix_e, self.burst_open, suspend)
            if open_b is not None:
                closed.append(open_b)
            tail_bursts = [(bs, min(be + suspend, window.end)) for bs, be in closed]
            burst_overlap = self.burst_base.copy()
            n_closed_bursts = self.n_closed_bursts
            active_seconds = self.active_base
            shortfalls = self.shortfall_base
        _overlap_pairs(burst_overlap, tail_bursts, window, n_windows)
        tail_shortfalls: list[float] = []
        for burst_start, burst_end in tail_bursts:
            duration = burst_end - burst_start
            active_seconds = active_seconds + duration
            if duration < MINIMUM_BILLED_SECONDS:
                tail_shortfalls.append(MINIMUM_BILLED_SECONDS - duration)
        credits, cluster_seconds, hourly = bill(
            predicted,
            burst_overlap,
            busy_overlap,
            itertools.chain(shortfalls, tail_shortfalls),
            config,
            window,
        )
        latencies = self.lat.view()
        return ReplayResult(
            credits=credits,
            active_seconds=active_seconds,
            cluster_seconds=cluster_seconds,
            n_queries=n_queries,
            n_bursts=n_closed_bursts + len(tail_bursts),
            avg_latency=float(np.mean(latencies)) if n_queries else 0.0,
            p99_latency=percentile(latencies, 99),
            hourly_credits=hourly,
        )


@dataclass
class IncrementalReplay:
    """Streaming what-if ledger over one telemetry window.

    Feed rows with :meth:`observe` (any arrival order within the window)
    and materialize a per-config
    :class:`~repro.costmodel.replay.ReplayResult` with :meth:`result`.  See
    the module docstring for the cost model of each operation and the
    exactness contract.
    """

    latency_model: LatencyScalingModel
    gap_model: GapModel
    cluster_predictor: ClusterCountPredictor
    window: Window

    def __post_init__(self) -> None:
        self._records: list[QueryRecord] = []
        self._templates: list[str] = []
        self._raw_arrivals = _Buf(np.float64)
        self._end_times = _Buf(np.float64)
        self._exec_seconds = _Buf(np.float64)
        self._cache_hits = _Buf(np.float64)
        self._size_values = _Buf(np.float64)
        self._chained_flags = _Buf(bool)
        self._chained = _Buf(bool)
        self._lags = _Buf(np.float64)
        self._gammas = _Buf(np.float64)
        self._n = 0
        self._rows_observed = 0
        self._states: dict[tuple, _ExactState] = {}
        self._fit_key = self._current_fit_key()
        self._id_checksum_memo: tuple[int, str] | None = None

    # ------------------------------------------------------------ plumbing
    @property
    def n_windows(self) -> int:
        return max(1, int(math.ceil(self.window.duration / MINI_WINDOW_SECONDS)))

    @property
    def n_records(self) -> int:
        return self._n

    @property
    def records(self) -> list[QueryRecord]:
        """The retained rows, in maintained arrival order (copy)."""
        return list(self._records)

    def _current_fit_key(self) -> tuple[int, int]:
        return (self.gap_model.fit_generation, self.latency_model.fit_generation)

    def _refit_check(self) -> None:
        key = self._current_fit_key()
        if key == self._fit_key:
            return
        self._fit_key = key
        # Re-derive every fitted-model-dependent column, then rebuild.
        if self._n:
            chained, lags = self.gap_model.classify_arrays(
                self._raw_arrivals.view(),
                self._end_times.view(),
                self._templates,
                self._chained_flags.view(),
            )
            self._chained.load(chained)
            self._lags.load(lags)
            self._gammas.load(self.latency_model.gamma_array(self._templates))
        for state in self._states.values():
            state.dirty = True

    # ------------------------------------------------------------- updates
    def observe(self, record: QueryRecord) -> None:
        """Ingest one QUERY_HISTORY row (O(delta) amortized)."""
        arrival = float(record.arrival_time)
        if not (self.window.start <= arrival < self.window.end):
            raise ConfigurationError(
                f"arrival {arrival} outside window "
                f"[{self.window.start}, {self.window.end})"
            )
        self._refit_check()
        raw = self._raw_arrivals.view()
        k = int(np.searchsorted(raw, arrival, side="right"))
        self._records.insert(k, record)
        self._templates.insert(k, record.template_hash)
        self._raw_arrivals.insert(k, arrival)
        self._end_times.insert(k, float(record.end_time))
        self._exec_seconds.insert(k, float(record.execution_seconds))
        self._cache_hits.insert(k, float(record.cache_hit_ratio))
        self._size_values.insert(k, _SIZE_VALUES[record.warehouse_size])
        self._chained_flags.insert(k, bool(record.chained))
        self._gammas.insert(k, self.latency_model.gamma(record.template_hash))
        self._n += 1
        self._rows_observed += 1
        self._id_checksum_memo = None
        chained_k, lag_k = self._classify_at(k)
        self._chained.insert(k, chained_k)
        self._lags.insert(k, lag_k)
        if k + 1 < self._n:
            # The successor's predecessor changed; refresh its classification
            # before any per-config cascade reads it.
            chained_s, lag_s = self._classify_at(k + 1)
            self._chained.set(k + 1, chained_s)
            self._lags.set(k + 1, lag_s)
        for state in self._states.values():
            state.insert_record(self, k)

    def _classify_at(self, k: int) -> tuple[bool, float]:
        """Scalar twin of ``GapModel.classify_arrays`` element ``k``."""
        if k == 0:
            return False, 0.0
        return self.gap_model.classify_step(
            float(self._end_times.get(k - 1)),
            float(self._raw_arrivals.get(k)),
            self._templates[k - 1],
            self._templates[k],
            bool(self._chained_flags.get(k)),
        )

    # ------------------------------------------------------------- results
    def _state_for(self, config: WarehouseConfig) -> _ExactState:
        self._refit_check()
        key = _config_key(config)
        state = self._states.get(key)
        if state is not None:
            # Touch for LRU: the slider's warm candidate set stays resident.
            self._states[key] = self._states.pop(key)
        else:
            if len(self._states) >= MAX_CONFIGS:
                oldest = next(iter(self._states))
                del self._states[oldest]
            state = _ExactState(config, self.n_windows)
            self._states[key] = state
        return state

    def result(self, config: WarehouseConfig) -> ReplayResult:
        """Materialize the what-if (bit-identical to a full replay)."""
        return self._state_for(config).materialize(self)

    # ------------------------------------------------------- reconciliation
    def full_replay(self, config: WarehouseConfig) -> ReplayResult:
        """A from-scratch :class:`QueryReplay` over the retained rows."""
        replay = QueryReplay(
            latency_model=self.latency_model,
            gap_model=self.gap_model,
            cluster_predictor=self.cluster_predictor,
        )
        return replay.replay(self.records, config, self.window)

    def verify(self, config: WarehouseConfig) -> tuple[ReplayResult, ReplayResult, float]:
        """(incremental, full, max |divergence|) — always 0.0 unless broken."""
        full = self.full_replay(config)
        inc = self.result(config)
        divergence = max(
            abs(inc.credits - full.credits),
            abs(inc.active_seconds - full.active_seconds),
            abs(inc.cluster_seconds - full.cluster_seconds),
        )
        return inc, full, divergence

    # ----------------------------------------------------------- durability
    def _id_checksum(self) -> str:
        memo = self._id_checksum_memo
        if memo is not None and memo[0] == self._rows_observed:
            return memo[1]
        digest = state_checksum({"ids": sorted(r.query_id for r in self._records)})
        self._id_checksum_memo = (self._rows_observed, digest)
        return digest

    def state_dict(self) -> dict:
        """Canonical streaming state for checkpoint/restore.

        Row contents are recoverable from telemetry, so the checkpoint
        stores the window, counters and an order-independent checksum of
        the ingested row ids; after :meth:`load_state_dict` the owner
        re-feeds the rows and :meth:`verify_restored` confirms the ledger
        re-converged.  Byte-identical round-trip is over this dict.
        """
        return {
            "window": encode_window(self.window),
            "n_records": self._n,
            "rows_observed": self._rows_observed,
            "fit_key": list(self._fit_key),
            "id_checksum": self._id_checksum(),
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            ("window", "n_records", "rows_observed", "fit_key", "id_checksum"),
            "IncrementalReplay",
        )
        if self._n:
            raise ConfigurationError("load_state_dict requires an empty ledger")
        self.window = decode_window(state["window"])
        self._restore_expected = (
            int(state["n_records"]), str(state["id_checksum"]),
            int(state["rows_observed"]),
        )

    def verify_restored(self) -> None:
        """After re-feeding rows post-restore, check we converged."""
        expected = getattr(self, "_restore_expected", None)
        if expected is None:
            return
        n, checksum, rows_observed = expected
        if self._n != n or self._id_checksum() != checksum:
            raise RecoveryError(
                f"incremental ledger restore mismatch: re-fed {self._n} rows "
                f"(checksum {self._id_checksum()[:12]}), checkpoint recorded "
                f"{n} (checksum {checksum[:12]})"
            )
        # Restore the lifetime counter so the next checkpoint is identical.
        self._rows_observed = rows_observed
        self._id_checksum_memo = None
        del self._restore_expected
