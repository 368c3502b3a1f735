"""Vectorized-vs-scalar equivalence for the replay kernels (docs/PERFORMANCE.md).

The NumPy kernels in :mod:`repro.costmodel.kernels` (and the batched
classify/rescale paths in gaps/latency) promise *bit-identical* results to
the scalar reference loops they replaced — kept as the test oracle in
``tests/props/replay_oracle.py``.  These properties drive the library
replay and the oracle over random telemetry and the edge cases the kernels
special-case (empty windows, zero-suspend, sub-60-second bursts) and assert
exact equality of every :class:`ReplayResult` field.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR, Window
from repro.costmodel import kernels
from repro.costmodel.clusters import (
    MINI_WINDOW_SECONDS,
    ClusterCountPredictor,
    concurrency_profile,
)
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import QueryReplay
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

from tests.props import replay_oracle as oracle

HORIZON = 6 * HOUR

#: Random telemetry rows: (arrival, duration, template id, size, cache hit,
#: chained flag).  Mixed templates/sizes exercise the per-template gamma
#: lookups and the unique-exponent pow cache in ``rescale_batch``; low cache
#: hit ratios exercise the cold-cache damping branch.
record_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=HORIZON - 120.0),
        st.floats(min_value=0.2, max_value=900.0),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([WarehouseSize.S, WarehouseSize.M, WarehouseSize.L]),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    ),
    min_size=0,
    max_size=60,
)

suspends = st.sampled_from([0.0, 45.0, 60.0, 300.0, 1800.0])
sizes = st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.L])

#: Random busy spans for the kernel-level properties (may overlap).
span_lists = st.lists(
    st.tuples(
        st.floats(min_value=-500.0, max_value=HORIZON),
        st.floats(min_value=0.0, max_value=2000.0),
    ),
    min_size=0,
    max_size=50,
)


def to_records(rows) -> list[QueryRecord]:
    return [
        QueryRecord(
            query_id=i,
            warehouse="WH",
            text_hash=f"x{i}",
            template_hash=f"t{template}",
            arrival_time=arrival,
            start_time=arrival,
            end_time=arrival + duration,
            execution_seconds=duration,
            warehouse_size=size,
            cache_hit_ratio=cache_hit,
            cluster_number=1,
            chained=chained,
            completed=True,
        )
        for i, (arrival, duration, template, size, cache_hit, chained) in enumerate(
            sorted(rows)
        )
    ]


def fitted_replay(records) -> QueryReplay:
    """A library replay over *fitted* component models."""
    return QueryReplay(
        LatencyScalingModel().fit(records), GapModel().fit(records), ClusterCountPredictor()
    )


def both_paths(replay, records, config, window):
    """(library result, oracle result) over the same models and inputs."""
    return (
        replay.replay(records, config, window),
        oracle.replay(replay, records, config, window),
    )


def assert_results_identical(fast, slow):
    assert fast.credits == slow.credits
    assert fast.active_seconds == slow.active_seconds
    assert fast.cluster_seconds == slow.cluster_seconds
    assert fast.n_queries == slow.n_queries
    assert fast.n_bursts == slow.n_bursts
    assert fast.avg_latency == slow.avg_latency
    assert fast.p99_latency == slow.p99_latency
    assert fast.hourly_credits == slow.hourly_credits


class TestReplayEquivalence:
    @given(record_rows, suspends, sizes)
    @settings(max_examples=120, deadline=None)
    def test_replay_results_bit_identical(self, rows, suspend, size):
        records = to_records(rows)
        config = WarehouseConfig(size=size, auto_suspend_seconds=suspend)
        window = Window(0.0, HORIZON)
        assert_results_identical(*both_paths(fitted_replay(records), records, config, window))

    @given(record_rows)
    @settings(max_examples=40, deadline=None)
    def test_empty_window_equivalence(self, rows):
        """A window past every arrival clips all intervals to nothing."""
        records = to_records(rows)
        config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=300.0)
        window = Window(HORIZON + DAY_PAD, HORIZON + DAY_PAD + HOUR)
        assert_results_identical(*both_paths(fitted_replay(records), records, config, window))

    def test_zero_suspend_never_suspends_path(self):
        """auto_suspend=0 means "never suspends": one burst to window end."""
        records = to_records([(100.0, 60.0, 0, WarehouseSize.S, 1.0, False)])
        config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=0.0)
        window = Window(0.0, HORIZON)
        fast_result, slow_result = both_paths(fitted_replay(records), records, config, window)
        assert_results_identical(fast_result, slow_result)
        assert fast_result.n_bursts == 1
        assert fast_result.active_seconds == HORIZON - 100.0

    def test_sub_minimum_burst_equivalence(self):
        """Bursts under 60 s bill the 60 s minimum in both paths."""
        rows = [(10.0, 2.0, 0, WarehouseSize.S, 1.0, False)]
        records = to_records(rows)
        config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=30.0)
        window = Window(0.0, HOUR)
        fast_result, slow_result = both_paths(fitted_replay(records), records, config, window)
        assert_results_identical(fast_result, slow_result)
        assert fast_result.credits > 0.0

    @given(record_rows, suspends)
    @settings(max_examples=40, deadline=None)
    def test_unfitted_models_equivalence(self, rows, suspend):
        """Unfitted gap/latency models (the onboarding state) agree too."""
        records = to_records(rows)
        replay = QueryReplay(LatencyScalingModel(), GapModel(), ClusterCountPredictor())
        config = WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=suspend)
        window = Window(0.0, HORIZON)
        assert_results_identical(*both_paths(replay, records, config, window))

    @given(record_rows, st.lists(st.tuples(sizes, suspends), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_history_shared_across_configs_bit_identical(self, rows, configs):
        """One history replayed under many configs (sizes repeat, so the
        size stage is reused) agrees with a fresh oracle replay of each."""
        records = to_records(rows)
        replay = fitted_replay(records)
        window = Window(0.0, HORIZON)
        history = replay.history(records, window)
        for size, suspend in configs:
            config = WarehouseConfig(size=size, auto_suspend_seconds=suspend)
            assert_results_identical(
                history.cost(config), oracle.replay(replay, records, config, window)
            )


DAY_PAD = 3 * HOUR


class TestKernelEquivalence:
    @given(span_lists)
    @settings(max_examples=100, deadline=None)
    def test_bucketed_overlap_matches_coverage_scalar(self, raw):
        spans = sorted((s, s + d) for s, d in raw)
        window = Window(0.0, HORIZON)
        n_windows = max(1, int(math.ceil(window.duration / MINI_WINDOW_SECONDS)))
        scalar = oracle.coverage(spans, window, n_windows)
        starts, ends = kernels.as_interval_arrays(spans)
        vectorized = kernels.bucketed_overlap(
            starts, ends, window.start, MINI_WINDOW_SECONDS, n_windows
        )
        assert np.array_equal(scalar, vectorized)

    @given(st.lists(span_lists, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_bucketed_overlaps_rows_match_scalar(self, raws):
        """Each row of the one-pass ``(k, n)`` kernel is its set's oracle
        ``coverage`` (and, over window-clipped spans, ``concurrency_profile``
        times the step)."""
        window = Window(0.0, HORIZON)
        n_windows = max(1, int(math.ceil(window.duration / MINI_WINDOW_SECONDS)))
        span_sets = [sorted((s, s + d) for s, d in raw) for raw in raws]
        together = kernels.bucketed_overlaps(
            [kernels.as_interval_arrays(spans) for spans in span_sets],
            window.start, MINI_WINDOW_SECONDS, n_windows,
        )
        assert together.shape == (len(span_sets), n_windows)
        for row, spans in zip(together, span_sets):
            assert np.array_equal(row, oracle.coverage(spans, window, n_windows))
            clipped = [
                (max(s, window.start), min(e, window.end))
                for s, e in spans
                if min(e, window.end) > max(s, window.start)
            ]
            profile = oracle.concurrency_profile(
                clipped, window.start, window.end, MINI_WINDOW_SECONDS
            )
            assert np.array_equal(row / MINI_WINDOW_SECONDS, profile)

    @given(span_lists)
    @settings(max_examples=100, deadline=None)
    def test_concurrency_profile_matches_scalar(self, raw):
        spans = sorted((s, s + d) for s, d in raw)
        scalar = oracle.concurrency_profile(spans, 0.0, HORIZON, MINI_WINDOW_SECONDS)
        vectorized = concurrency_profile(spans, 0.0, HORIZON, MINI_WINDOW_SECONDS)
        assert np.array_equal(scalar, vectorized)

    @given(span_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_intervals_matches_scalar(self, raw):
        # The replay feeds intervals sorted by (start, end) — mirror that.
        spans = sorted((s, s + d) for s, d in raw)
        expected = oracle.merge_intervals(spans)
        starts, ends = kernels.merge_intervals(*kernels.as_interval_arrays(spans))
        assert list(zip(starts.tolist(), ends.tolist())) == expected

    @given(span_lists, suspends)
    @settings(max_examples=100, deadline=None)
    def test_activation_bursts_match_scalar(self, raw, suspend):
        if suspend <= 0:
            suspend = 45.0  # kernel contract: caller handles suspend <= 0
        spans = sorted((s, s + d) for s, d in raw if d > 0)
        if not spans:
            return
        window = Window(0.0, HORIZON)
        config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=suspend)
        expected = oracle.activation_bursts(spans, config, window)
        starts, ends = kernels.activation_bursts(
            *kernels.as_interval_arrays(spans), suspend, window.end
        )
        assert list(zip(starts.tolist(), ends.tolist())) == expected

    @given(
        st.lists(st.floats(min_value=0.0, max_value=4000.0), min_size=0, max_size=80),
        st.sampled_from([0.0, 12.25 * HOUR]),
    )
    @settings(max_examples=100, deadline=None)
    def test_hourly_credit_sums_match_scalar(self, seconds, offset):
        per_window = np.asarray(seconds, dtype=np.float64)
        window = Window(offset, offset + per_window.size * MINI_WINDOW_SECONDS + 1.0)
        rate = 4.0
        scalar = oracle.hourly_credits(per_window, window, rate)
        vectorized = kernels.hourly_credit_sums(
            per_window, window.start, MINI_WINDOW_SECONDS, HOUR, rate
        )
        assert scalar == vectorized
