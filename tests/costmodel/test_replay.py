"""Tests for the analytical query replay."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.simtime import HOUR, Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import QueryReplay
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize


def rec(arrival: float, dur: float, template="t", size=WarehouseSize.S, chained=False):
    return QueryRecord(
        query_id=int(arrival * 1000) % 10**9,
        warehouse="WH",
        text_hash=template + str(arrival),
        template_hash=template,
        arrival_time=arrival,
        start_time=arrival,
        end_time=arrival + dur,
        execution_seconds=dur,
        warehouse_size=size,
        cache_hit_ratio=1.0,
        cluster_number=1,
        chained=chained,
        completed=True,
    )


@pytest.fixture
def replay() -> QueryReplay:
    return QueryReplay(LatencyScalingModel(), GapModel(), ClusterCountPredictor())


def config(**kw) -> WarehouseConfig:
    defaults = dict(size=WarehouseSize.S, auto_suspend_seconds=300.0)
    defaults.update(kw)
    return WarehouseConfig(**defaults)


class TestReplayBasics:
    def test_empty_records_zero_cost(self, replay):
        result = replay.replay([], config(), Window(0, HOUR))
        assert result.credits == 0.0
        assert result.cost_is_zero

    def test_single_query_burst(self, replay):
        result = replay.replay([rec(100.0, 60.0)], config(), Window(0, HOUR))
        # Busy 60s + 300s suspend tail at 2 credits/hour.
        expected = (60 + 300) / HOUR * 2.0
        assert result.credits == pytest.approx(expected, rel=0.05)
        assert result.n_bursts == 1

    def test_history_belongs_to_its_replay_and_window(self, replay):
        records = [rec(100.0, 60.0)]
        history = replay.history(records, Window(0, HOUR))
        assert replay.replay(history, config(), Window(0, HOUR)) == history.cost(config())
        with pytest.raises(ConfigurationError):
            replay.replay(history, config(), Window(0, 2 * HOUR))
        other = QueryReplay(LatencyScalingModel(), GapModel(), ClusterCountPredictor())
        with pytest.raises(ConfigurationError):
            other.replay(history, config(), Window(0, HOUR))

    def test_bursts_merge_within_suspend_gap(self, replay):
        records = [rec(0.0, 60.0), rec(200.0, 60.0)]  # gap 140 < 300
        result = replay.replay(records, config(), Window(0, HOUR))
        assert result.n_bursts == 1

    def test_bursts_split_beyond_suspend_gap(self, replay):
        records = [rec(0.0, 60.0), rec(2000.0, 60.0)]  # gap >> 300
        result = replay.replay(records, config(), Window(0, HOUR))
        assert result.n_bursts == 2

    def test_zero_suspend_means_always_on(self, replay):
        records = [rec(0.0, 10.0)]
        result = replay.replay(records, config(auto_suspend_seconds=0.0), Window(0, HOUR))
        assert result.active_seconds == pytest.approx(HOUR)

    def test_minimum_billing_for_tiny_burst(self, replay):
        tiny = config(auto_suspend_seconds=1.0)
        result = replay.replay([rec(0.0, 5.0)], tiny, Window(0, HOUR))
        assert result.credits >= MINIMUM_BILLED_SECONDS / HOUR * 2.0

    def test_hourly_credits_sum_close_to_total(self, replay):
        records = [rec(i * 600.0, 120.0) for i in range(20)]
        result = replay.replay(records, config(), Window(0, 4 * HOUR))
        assert sum(result.hourly_credits.values()) == pytest.approx(result.credits, rel=0.05)

    def test_latency_stats_reported(self, replay):
        records = [rec(0.0, 10.0), rec(1000.0, 30.0)]
        result = replay.replay(records, config(), Window(0, HOUR))
        assert result.avg_latency == pytest.approx(20.0)
        assert result.n_queries == 2


class TestWhatIfSizes:
    def _scaled_history(self):
        # Template observed on two sizes so gamma is fit to 1.0.
        records = []
        for i in range(6):
            records.append(rec(i * 4000.0, 40.0, size=WarehouseSize.S))
            records.append(rec(i * 4000.0 + 2000.0, 20.0, size=WarehouseSize.M))
        return records

    def test_bigger_size_costs_more_for_idle_dominated(self, replay):
        records = self._scaled_history()
        replay.latency_model.fit(records)
        window = Window(0, 8 * HOUR)
        small = replay.replay(records, config(size=WarehouseSize.S), window)
        large = replay.replay(records, config(size=WarehouseSize.XL), window)
        # Idle-tail dominated workload: doubling rates dominates the saving.
        assert large.credits > small.credits

    def test_counterfactual_latency_scales(self, replay):
        records = self._scaled_history()
        replay.latency_model.fit(records)
        window = Window(0, 8 * HOUR)
        small = replay.replay(records, config(size=WarehouseSize.S), window)
        large = replay.replay(records, config(size=WarehouseSize.XL), window)
        assert large.avg_latency < small.avg_latency


class TestChainedReplays:
    def test_chained_arrivals_shift_with_latency(self, replay):
        # Chain: A at 0 for 100s, B arrives 5s after A ends, repeatedly.
        records = []
        for i in range(5):
            t = i * 3600.0
            records.append(rec(t, 100.0, template="A", size=WarehouseSize.M))
            records.append(rec(t + 105.0, 50.0, template="B", size=WarehouseSize.M, chained=True))
        replay.gap_model.fit(records)
        replay.latency_model.fit(records)
        window = Window(0, 5 * 3600.0)
        # Replaying on XS (4x slower at default gamma ~0.7 -> ~2.6x) should
        # stretch the chain: B's counterfactual arrival moves later.
        slow = replay.replay(records, config(size=WarehouseSize.XS, auto_suspend_seconds=60.0), window)
        fast = replay.replay(records, config(size=WarehouseSize.M, auto_suspend_seconds=60.0), window)
        assert slow.active_seconds > fast.active_seconds
        assert slow.avg_latency > fast.avg_latency


class TestObsFastPath:
    """With observability disabled, replay must skip *all* span work.

    The smart model issues thousands of what-if replays per run; the
    disabled fast path (no span record, no ``config.describe()`` dict) is
    what keeps the obs layer's overhead near zero when it is off
    (benchmarks/bench_fig6_overhead.py puts a number on it).
    """

    def test_disabled_skips_describe_entirely(self, replay, monkeypatch):
        from repro.warehouse.config import WarehouseConfig

        def boom(self):  # pragma: no cover - must never run
            raise AssertionError("config.describe() called on the fast path")

        monkeypatch.setattr(WarehouseConfig, "describe", boom)
        result = replay.replay([rec(100.0, 60.0)], config(), Window(0, HOUR))
        assert result.n_queries == 1

    def test_disabled_result_matches_observed_result(self, replay):
        from repro import obs

        records = [rec(100.0, 60.0), rec(900.0, 30.0, template="u")]
        window = Window(0, HOUR)
        disabled = replay.replay(records, config(), window)
        with obs.observed() as recorder:
            observed = replay.replay(records, config(), window)
            spans = [r for r in recorder.sink.records if r["type"] == "span"]
        assert observed == disabled
        assert [s["name"] for s in spans] == ["costmodel.replay"]
        assert spans[0]["attrs"]["n_queries"] == 2


class TestMergeIntervals:
    """Edge cases of the busy-interval union (and kernel agreement).

    The test oracle's ``merge_intervals`` is the scalar reference for
    ``kernels.merge_intervals``; every case checks both so the pair cannot
    drift apart on the boundaries.
    """

    @staticmethod
    def _both(intervals):
        from repro.costmodel import kernels
        from tests.props.replay_oracle import merge_intervals

        scalar = merge_intervals(intervals)
        starts, ends = kernels.merge_intervals(*kernels.as_interval_arrays(intervals))
        vectorized = list(zip(starts.tolist(), ends.tolist()))
        assert scalar == vectorized
        return scalar

    def test_empty(self):
        assert self._both([]) == []

    def test_single(self):
        assert self._both([(1.0, 2.0)]) == [(1.0, 2.0)]

    def test_zero_length_span_kept(self):
        """A (t, t) span seeds a group rather than vanishing."""
        assert self._both([(5.0, 5.0)]) == [(5.0, 5.0)]

    def test_span_starting_at_zero_length_predecessor_joins_it(self):
        assert self._both([(5.0, 5.0), (5.0, 9.0)]) == [(5.0, 9.0)]

    def test_exactly_touching_endpoints_merge(self):
        """start == previous end joins the group (gap of zero is no gap)."""
        assert self._both([(0.0, 10.0), (10.0, 20.0)]) == [(0.0, 20.0)]

    def test_contained_span_does_not_shrink_group(self):
        assert self._both([(0.0, 100.0), (10.0, 20.0), (30.0, 40.0)]) == [(0.0, 100.0)]

    def test_disjoint_spans_stay_separate(self):
        assert self._both([(0.0, 1.0), (2.0, 3.0)]) == [(0.0, 1.0), (2.0, 3.0)]

    def test_mixed_zero_length_and_overlaps(self):
        assert self._both(
            [(0.0, 0.0), (0.0, 5.0), (5.0, 5.0), (6.0, 7.0), (6.5, 6.5)]
        ) == [(0.0, 5.0), (6.0, 7.0)]
