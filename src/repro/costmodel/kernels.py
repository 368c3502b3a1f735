"""Vectorized NumPy kernels for the replay hot path (§5.1).

The what-if replay is called continuously — every smart-model tick asks
"what would this window have cost under that config" — so the per-query /
per-mini-window Python loops :mod:`repro.costmodel.replay` was first
written with dominated fleet-scale experiment wall-time.  These kernels
replace them with NumPy array programs.

**Float-exactness contract.**  Each kernel reproduces, bit for bit, the
result of the scalar reference it replaces (kept as the test oracle
``tests/props/replay_oracle.py`` and locked in by
``tests/props/test_replay_kernels.py``).
That is only possible because the accumulation *order* is preserved:

* :func:`bucketed_overlap` (and its ``k``-row form :func:`bucketed_overlaps`)
  expands every (span, bucket) pair explicitly and accumulates with
  ``np.add.at`` — unbuffered, element order — in the same span-major /
  bucket-ascending order the scalar nested loop uses, and
  computes each bucket edge with the very expressions the scalar code uses
  (``origin + w * width`` and ``w_start + width``, never ``(w + 1) * width``);
* :func:`merge_intervals` and :func:`activation_bursts` group sorted spans
  with a running ``np.maximum.accumulate`` — the cummax at index ``i - 1``
  equals the scalar loop's running group end, because a group's start
  strictly exceeds every earlier group's end (plus suspend, for bursts);
* :func:`hourly_credit_sums` accumulates with ``np.bincount``, which sums
  weights in input order — ascending mini-window, like the scalar loop —
  and derives each hour with ``np.floor_divide``, the array twin of the
  scalar ``int(t // HOUR)``.

Sums that the scalar references already perform with ``np.ndarray.sum()``
(pairwise) stay ``np.ndarray.sum()`` here, so both paths round identically.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Interval sets travel either as the legacy ``[(start, end), ...]`` list or
#: as a ``(starts, ends)`` pair of float64 arrays (the vectorized form).
IntervalArrays = tuple[np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.float64)


def as_interval_arrays(
    intervals: list[tuple[float, float]] | IntervalArrays,
) -> IntervalArrays:
    """Normalize an interval set to a ``(starts, ends)`` float64 array pair."""
    if (
        isinstance(intervals, tuple)
        and len(intervals) == 2
        and isinstance(intervals[0], np.ndarray)
    ):
        starts, ends = intervals
        return np.asarray(starts, dtype=np.float64), np.asarray(ends, dtype=np.float64)
    if len(intervals) == 0:
        return _EMPTY, _EMPTY
    pairs = np.asarray(intervals, dtype=np.float64)
    return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


def bucketed_overlap(
    starts: np.ndarray,
    ends: np.ndarray,
    origin: float,
    width: float,
    n_buckets: int,
) -> np.ndarray:
    """Seconds of each of ``n_buckets`` fixed-width buckets covered by spans.

    Vectorized twin of the oracle's ``coverage`` / ``concurrency_profile``
    nested loops: for every span, the overlap with each
    bucket it touches is accumulated into that bucket.  Spans are *not*
    required to be disjoint — overlapping spans stack, which is exactly what
    the concurrency profile wants.  The one-row case of
    :func:`bucketed_overlaps`.
    """
    out = np.zeros(n_buckets, dtype=np.float64)
    _add_overlaps(out, starts, ends, None, origin, width, n_buckets)
    return out


def bucketed_overlaps(
    interval_sets: Sequence[IntervalArrays],
    origin: float,
    width: float,
    n_buckets: int,
) -> np.ndarray:
    """:func:`bucketed_overlap` of ``k`` interval sets in one pass: ``(k, n)``.

    The replay covers the same buckets with several interval sets (the raw
    spans for the concurrency profile and the merged busy intervals).  All
    sets share one ragged expansion and one
    ``np.add.at`` into the flattened ``(k, n_buckets)`` output; row ``r``'s
    updates land at ``r * n_buckets + bucket`` in span-major order, so every
    row accumulates exactly as its own :func:`bucketed_overlap` call would.
    """
    out = np.zeros((len(interval_sets), n_buckets), dtype=np.float64)
    rows = np.repeat(
        np.arange(0, out.size, n_buckets, dtype=np.int64),
        [starts.size for starts, _ in interval_sets],
    )
    _add_overlaps(
        out.reshape(-1),
        np.concatenate([starts for starts, _ in interval_sets]),
        np.concatenate([ends for _, ends in interval_sets]),
        rows, origin, width, n_buckets,
    )
    return out


def _add_overlaps(
    flat: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    row_offsets: np.ndarray | None,
    origin: float,
    width: float,
    n_buckets: int,
) -> None:
    """Add each span's overlap with each bucket into ``flat[row_offset +
    bucket]``; ``row_offsets=None`` puts every span in one row at 0."""
    if starts.size == 0 or n_buckets <= 0:
        return
    first = np.floor_divide(starts - origin, width).astype(np.int64)
    last = np.floor_divide(ends - origin, width).astype(np.int64)
    np.maximum(first, 0, out=first)
    np.minimum(last, n_buckets - 1, out=last)
    counts = last - first + 1
    touching = counts > 0
    if not touching.all():
        if not touching.any():
            return
        first = first[touching]
        counts = counts[touching]
        starts = starts[touching]
        ends = ends[touching]
        if row_offsets is not None:
            row_offsets = row_offsets[touching]
    # Ragged expansion: one entry per (span, bucket) pair, span-major with
    # buckets ascending within each span — the scalar loop's order.  Pair
    # ``j`` of a span whose pairs begin at ``offsets[span]`` is bucket
    # ``first[span] + (j - offsets[span])``.
    offsets = np.cumsum(counts)
    offsets -= counts
    buckets = np.repeat(first - offsets, counts)
    buckets += np.arange(buckets.size)
    bucket_start = origin + buckets * width
    bucket_end = bucket_start + width
    overlap = np.minimum(np.repeat(ends, counts), bucket_end)
    overlap -= np.maximum(np.repeat(starts, counts), bucket_start)
    np.maximum(overlap, 0.0, out=overlap)
    if row_offsets is not None:
        buckets += np.repeat(row_offsets, counts)
    np.add.at(flat, buckets, overlap)


def merge_intervals(starts: np.ndarray, ends: np.ndarray) -> IntervalArrays:
    """Union of possibly-overlapping busy intervals, sorted by start.

    Twin of the oracle's ``merge_intervals``: a new merged group
    begins exactly where a start exceeds the running maximum end of
    everything before it.
    """
    if starts.size == 0:
        return _EMPTY, _EMPTY
    running_end = np.maximum.accumulate(ends)
    is_group_start = np.empty(starts.size, dtype=bool)
    is_group_start[0] = True
    is_group_start[1:] = starts[1:] > running_end[:-1]
    group_first = np.flatnonzero(is_group_start)
    group_last = np.append(group_first[1:] - 1, starts.size - 1)
    return starts[group_first], running_end[group_last]


def activation_bursts(
    starts: np.ndarray,
    ends: np.ndarray,
    suspend: float,
    window_end: float,
) -> IntervalArrays:
    """Merge sorted busy intervals into billable activation bursts.

    Twin of the oracle's ``activation_bursts`` for ``suspend > 0``:
    gaps no longer than ``suspend`` keep the warehouse up, and every burst
    bills one auto-suspend tail (clipped to the window end).  The caller
    handles the never-suspends (``suspend <= 0``) special case.
    """
    if starts.size == 0:
        return _EMPTY, _EMPTY
    running_end = np.maximum.accumulate(ends)
    is_burst_start = np.empty(starts.size, dtype=bool)
    is_burst_start[0] = True
    is_burst_start[1:] = starts[1:] > running_end[:-1] + suspend
    burst_first = np.flatnonzero(is_burst_start)
    burst_last = np.append(burst_first[1:] - 1, starts.size - 1)
    burst_ends = np.minimum(running_end[burst_last] + suspend, window_end)
    return starts[burst_first], burst_ends


def hourly_credit_sums(
    cluster_seconds_per_window: np.ndarray,
    origin: float,
    width: float,
    hour_seconds: float,
    rate: float,
) -> dict[int, float]:
    """Per-hour credit totals from per-mini-window cluster-seconds.

    Twin of the oracle's ``hourly_credits`` loop:
    windows with no billed cluster-seconds contribute no key, and each
    window's credits are ``cluster_seconds / hour_seconds * rate`` summed in
    ascending-window order (``np.bincount`` accumulates in input order).
    """
    billed = np.flatnonzero(cluster_seconds_per_window > 0)
    if billed.size == 0:
        return {}
    window_start = origin + billed * width
    hours = np.floor_divide(window_start, hour_seconds).astype(np.int64)
    contribution = cluster_seconds_per_window[billed] / hour_seconds * rate
    base = int(hours[0])
    offsets = hours - base
    sums = np.bincount(offsets, weights=contribution)
    seen = np.bincount(offsets) > 0
    return {base + int(i): float(sums[i]) for i in np.flatnonzero(seen)}
