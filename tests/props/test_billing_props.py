"""Property-based tests for billing invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR, Window, hour_index
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS, BillingMeter, UsageSegment
from repro.warehouse.types import WarehouseSize

sizes = st.sampled_from(list(WarehouseSize))
# (start, duration) pairs for sequential segments on one cluster.
segment_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.1, max_value=5000.0),
        sizes,
    ),
    min_size=1,
    max_size=20,
)


def build_meter(segments) -> tuple[BillingMeter, float]:
    """Sequential open/close cycles; returns the meter and the end time."""
    meter = BillingMeter("WH")
    t = 0.0
    for gap, duration, size in segments:
        t += gap
        meter.open_segment(1, t, size)
        t += duration
        meter.close_segment(1, t)
    return meter, t


class TestBillingProperties:
    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_credits_non_negative(self, segments):
        meter, _ = build_meter(segments)
        assert meter.total_credits() >= 0.0

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_minimum_charge_floor(self, segments):
        """Every fresh start bills at least the 60 s minimum."""
        meter, _ = build_meter(segments)
        floor = sum(
            MINIMUM_BILLED_SECONDS / HOUR * size.credits_per_hour
            for _, __, size in segments
        )
        assert meter.total_credits() >= floor - 1e-9

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_hourly_rollup_conserves_credits(self, segments):
        """Rolling up hourly must neither create nor destroy credits."""
        meter, end = build_meter(segments)
        window = Window(0.0, end + MINIMUM_BILLED_SECONDS + 1.0)
        rollup = meter.hourly_rollup(window)
        assert sum(rollup.values()) == pytest.approx(meter.total_credits(), rel=1e-9)

    @given(segment_lists, st.floats(min_value=1.0, max_value=20000.0))
    @settings(max_examples=100, deadline=None)
    def test_window_split_conserves_credits(self, segments, split):
        """Credits split across adjacent windows sum to the whole."""
        meter, end = build_meter(segments)
        horizon = end + MINIMUM_BILLED_SECONDS + 1.0
        split = min(split, horizon - 0.5)
        left = meter.credits_in_window(Window(0.0, split))
        right = meter.credits_in_window(Window(split, horizon))
        whole = meter.credits_in_window(Window(0.0, horizon))
        assert left + right == pytest.approx(whole, rel=1e-9, abs=1e-12)

    @given(segment_lists)
    @settings(max_examples=50, deadline=None)
    def test_bigger_sizes_cost_more(self, segments):
        """Re-running the same schedule one size up at least doubles cost
        for every non-maxed size (rates double, minimums double)."""
        meter, _ = build_meter(segments)
        upsized = [
            (gap, dur, WarehouseSize(min(size.value + 1, WarehouseSize.SIZE_6XL.value)))
            for gap, dur, size in segments
        ]
        meter_up, _ = build_meter(upsized)
        if all(size != WarehouseSize.SIZE_6XL for _, __, size in segments):
            assert meter_up.total_credits() == pytest.approx(2 * meter.total_credits())


# --------------------------------------------------------------------------
# Indexed reads vs. the full scan they replaced.
#
# The oracle below is the meter's former read path, kept verbatim in spirit:
# every closed segment ever, then every open segment valued at ``as_of``,
# each read through ``billed_window()`` and the size enum.  The meter now
# bisects past segments that end before the window; the results must be
# the same objects to the bit, compared by ``repr`` so an int ``0`` from an
# empty ``sum()`` is not confused with ``0.0``.


def _oracle_segments(closed, open_, as_of):
    segments = list(closed)
    for seg in open_.values():
        if as_of is None:
            continue
        segments.append(
            UsageSegment(seg.cluster_id, seg.size, seg.start, max(as_of, seg.start), seg.fresh_start)
        )
    return segments


def oracle_total_credits(closed, open_, as_of=None):
    return sum(seg.credits() for seg in _oracle_segments(closed, open_, as_of))


def oracle_credits_in_window(closed, open_, window, as_of=None):
    total = 0.0
    for seg in _oracle_segments(closed, open_, as_of if as_of is not None else window.end):
        total += seg.billed_window().overlap(window) / HOUR * seg.size.credits_per_hour
    return total


def oracle_hourly_rollup(closed, open_, window, as_of=None):
    rollup = {}
    for seg in _oracle_segments(closed, open_, as_of if as_of is not None else window.end):
        billed = seg.billed_window()
        clipped_start = max(billed.start, window.start)
        clipped_end = min(billed.end, window.end)
        if clipped_end <= clipped_start:
            continue
        for piece in Window(clipped_start, clipped_end).split_hours():
            h = hour_index(piece.start)
            rollup[h] = rollup.get(h, 0.0) + piece.duration / HOUR * seg.size.credits_per_hour
    return rollup


def oracle_active_cluster_seconds(closed, open_, window, as_of=None):
    return sum(
        seg.billed_window().overlap(window)
        for seg in _oracle_segments(closed, open_, as_of if as_of is not None else window.end)
    )


# Gaps: simultaneous events, fresh starts well under the 60 s minimum, and
# runs long enough to cross hour boundaries.
gaps = st.one_of(
    st.sampled_from([0.0, 0.5, 10.0, 59.9, 60.0, 61.0, 900.0, 3600.0]),
    st.floats(min_value=0.0, max_value=7200.0),
)
# (cluster, gap, action, size): "toggle" opens a closed cluster or closes an
# open one; "reprice" resizes an open cluster (opens a closed one).
events = st.lists(
    st.tuples(st.integers(1, 3), gaps, st.sampled_from(["toggle", "toggle", "reprice"]), sizes),
    max_size=40,
)


def replay_stream(stream):
    """Drive a meter and a mirror of its segments; returns both and the end time."""
    meter = BillingMeter("WH")
    closed: list[UsageSegment] = []
    open_: dict[int, UsageSegment] = {}
    t = 0.0
    for cluster, gap, action, size in stream:
        t += gap
        if cluster not in open_:
            meter.open_segment(cluster, t, size)
            open_[cluster] = UsageSegment(cluster, size, t)
        elif action == "toggle":
            closed.append(meter.close_segment(cluster, t))
            del open_[cluster]
        else:
            meter.reprice_segment(cluster, t, size)
            seg = open_.pop(cluster)
            closed.append(UsageSegment(cluster, seg.size, seg.start, t, seg.fresh_start))
            open_[cluster] = UsageSegment(cluster, size, t, fresh_start=False)
    return meter, closed, open_, t


def query_windows(now, lo, span):
    """Windows anywhere around the stream, plus far past, far future, empty."""
    start = lo * (now + 2 * HOUR) - HOUR
    return [
        Window(start, start + span),
        Window(max(0.0, now - HOUR), now),
        Window(0.0, now + MINIMUM_BILLED_SECONDS),
        Window(-10 * HOUR, -9 * HOUR),
        Window(now + 100 * HOUR, now + 101 * HOUR),
        Window(start, start),
    ]


def as_ofs(now, open_):
    """None, now, the future, and lagged values (one before an open start)."""
    values = [None, now, now + 5000.0, max(0.0, now - 600.0)]
    if open_:
        values.append(min(seg.start for seg in open_.values()) - 30.0)
    return values


class TestIndexedReadsMatchFullScan:
    @given(events, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=3 * HOUR))
    @settings(max_examples=200, deadline=None)
    def test_window_reads_bit_identical(self, stream, lo, span):
        meter, closed, open_, now = replay_stream(stream)
        for window in query_windows(now, lo, span):
            for as_of in as_ofs(now, open_):
                assert repr(meter.credits_in_window(window, as_of)) == repr(
                    oracle_credits_in_window(closed, open_, window, as_of)
                )
                assert repr(meter.hourly_rollup(window, as_of)) == repr(
                    oracle_hourly_rollup(closed, open_, window, as_of)
                )
                assert repr(meter.active_cluster_seconds(window, as_of)) == repr(
                    oracle_active_cluster_seconds(closed, open_, window, as_of)
                )

    @given(events)
    @settings(max_examples=200, deadline=None)
    def test_total_credits_bit_identical(self, stream):
        meter, closed, open_, now = replay_stream(stream)
        for as_of in as_ofs(now, open_):
            assert repr(meter.total_credits(as_of)) == repr(oracle_total_credits(closed, open_, as_of))

    def test_empty_meter_keeps_int_zero_sums(self):
        meter = BillingMeter("WH")
        window = Window(0.0, HOUR)
        assert repr(meter.total_credits()) == repr(oracle_total_credits([], {})) == "0"
        assert repr(meter.active_cluster_seconds(window)) == "0"
        assert repr(meter.credits_in_window(window)) == "0.0"
        assert meter.hourly_rollup(window) == {}

    def test_all_history_skipped_still_sums_to_float_zero(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 10.0)
        window = Window(5 * HOUR, 6 * HOUR)
        assert repr(meter.active_cluster_seconds(window)) == "0.0"
        assert meter.segments_scanned == 0
