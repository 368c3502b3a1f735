"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.common.rng import RngRegistry
from repro.common.simtime import DAY, HOUR, Window, day_of_week, hour_of_day
from repro.workloads.adhoc import AdhocWorkload
from repro.workloads.base import (
    CompositeWorkload,
    business_hours_profile,
    make_partition_universe,
    month_end_multiplier,
    poisson_arrivals,
    sample_table_subset,
)
from repro.workloads.bi import BiWorkload
from repro.workloads.etl import EtlWorkload
from repro.workloads.mixed import (
    make_predictable_workload,
    make_static_etl_workload,
    make_unpredictable_workload,
)


class TestArrivalProcesses:
    def test_poisson_rate_roughly_matches(self, rng):
        window = Window(0, 10 * HOUR)
        arrivals = poisson_arrivals(rng, window, lambda t: 30.0)
        assert 200 < len(arrivals) < 400  # 300 expected

    def test_zero_rate_no_arrivals(self, rng):
        assert poisson_arrivals(rng, Window(0, DAY), lambda t: 0.0) == []

    def test_arrivals_inside_window_and_sorted(self, rng):
        window = Window(HOUR, 3 * HOUR)
        arrivals = poisson_arrivals(rng, window, lambda t: 20.0)
        assert all(window.contains(t) for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_thinning_respects_profile(self, rng):
        # Rate 60/hr in the second hour only.
        def rate(t):
            return np.where((HOUR <= t) & (t < 2 * HOUR), 60.0, 1.0)

        arrivals = poisson_arrivals(rng, Window(0, 3 * HOUR), rate)
        in_peak = sum(1 for t in arrivals if HOUR <= t < 2 * HOUR)
        assert in_peak > 0.7 * len(arrivals)

    def test_business_hours_profile(self):
        monday_10am = 10 * HOUR
        monday_3am = 3 * HOUR
        saturday_noon = 5 * DAY + 12 * HOUR
        assert business_hours_profile(monday_10am, 1.0, 10.0) > 4.0
        assert business_hours_profile(monday_3am, 1.0, 10.0) == 1.0
        assert business_hours_profile(saturday_noon, 1.0, 10.0) == 1.0

    def test_month_end_multiplier(self):
        assert month_end_multiplier(26 * DAY, boost=2.0, days=3) == 2.0
        assert month_end_multiplier(10 * DAY, boost=2.0, days=3) == 1.0
        # Next month's end also boosts.
        assert month_end_multiplier((28 + 27) * DAY, boost=2.0, days=3) == 2.0


class TestPartitionHelpers:
    def test_universe_shape(self):
        universe = make_partition_universe("x", n_tables=3, partitions_per_table=4)
        assert len(universe) == 3
        assert all(len(t) == 4 for t in universe)
        assert len({p for t in universe for p in t}) == 12

    def test_sample_subset_contiguous_within_table(self, rng):
        universe = make_partition_universe("x", 5, 10)
        parts = sample_table_subset(rng, universe, n_tables=2, fraction=0.5)
        assert len(parts) == 10  # 2 tables x 5 partitions
        assert len(set(parts)) == len(parts)


class TestEtlWorkload:
    def test_chained_steps(self, rng):
        workload = EtlWorkload.synthesize(rng, n_pipelines=2, steps_per_pipeline=4, launches_per_day=1)
        requests = workload.generate(Window(0, DAY))
        chains = [r for r in requests if r.chained]
        # 3 chained steps per pipeline launch.
        assert len(chains) == 2 * 3

    def test_chained_arrivals_follow_expected_durations(self, rng):
        workload = EtlWorkload.synthesize(rng, n_pipelines=1, steps_per_pipeline=3, launches_per_day=1)
        requests = sorted(workload.generate(Window(0, DAY)), key=lambda r: r.arrival_time)
        gaps = np.diff([r.arrival_time for r in requests])
        assert (gaps > 0).all()

    def test_recurring_daily(self, rng):
        workload = EtlWorkload.synthesize(rng, n_pipelines=1, steps_per_pipeline=2, launches_per_day=2)
        week = workload.generate(Window(0, 7 * DAY))
        assert len(week) == 7 * 2 * 2

    def test_weekday_restriction(self, rng):
        workload = EtlWorkload.synthesize(rng, n_pipelines=1, steps_per_pipeline=1, launches_per_day=1)
        workload.pipelines[0].weekdays = (0,)  # Mondays only
        week = workload.generate(Window(0, 7 * DAY))
        assert len(week) == 1
        assert day_of_week(week[0].arrival_time) == 0

    def test_evenly_spaced_launches(self, rng):
        workload = EtlWorkload.synthesize(
            rng, n_pipelines=1, steps_per_pipeline=1, launches_per_day=24, evenly_spaced=True
        )
        launches = workload.pipelines[0].launch_times
        gaps = np.diff(launches)
        assert np.allclose(gaps, HOUR)

    def test_empty_pipelines_rejected(self, rng):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            EtlWorkload(rng, [])


class TestBiWorkload:
    def test_panel_submitted_together(self, rng):
        workload = BiWorkload.synthesize(rng, n_dashboards=1, panels_per_dashboard=6)
        requests = workload.generate(Window(0, 7 * DAY))
        assert len(requests) % 6 == pytest.approx(0)

    def test_identical_text_hashes_across_refreshes(self, rng):
        workload = BiWorkload.synthesize(rng, n_dashboards=1, panels_per_dashboard=2)
        requests = workload.generate(Window(0, 7 * DAY))
        hashes = {}
        for r in requests:
            hashes.setdefault(r.template_hash, set()).add(r.text_hash)
        # Every panel query re-issues the same SQL text each refresh.
        assert all(len(texts) == 1 for texts in hashes.values())

    def test_business_hours_concentration(self, rng):
        workload = BiWorkload.synthesize(rng, n_dashboards=3)
        requests = workload.generate(Window(0, 7 * DAY))
        in_hours = sum(
            1
            for r in requests
            if day_of_week(r.arrival_time) < 5 and 8 <= hour_of_day(r.arrival_time) < 18
        )
        assert in_hours > 0.7 * len(requests)

    def test_cache_sensitive_templates(self, rng):
        workload = BiWorkload.synthesize(rng, n_dashboards=2)
        for dashboard in workload.dashboards:
            for tpl in dashboard.panel:
                assert tpl.cold_multiplier >= 2.0


class TestAdhocWorkload:
    def test_generation_deterministic_per_seed(self):
        def build(seed):
            wl = AdhocWorkload.synthesize(np.random.default_rng(seed))
            return wl.generate(Window(0, 3 * DAY))

        a = build(5)
        b = build(5)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        assert len(build(6)) != len(a) or build(6)[0].arrival_time != a[0].arrival_time

    def test_spike_days_stable_across_windows(self, rng):
        workload = AdhocWorkload.synthesize(rng, spike_probability_per_day=0.5)
        d1 = workload._spike_days(Window(0, 10 * DAY))
        d2 = workload._spike_days(Window(5 * DAY, 10 * DAY))
        assert {d for d in d1 if d >= 5} == d2

    def test_unique_text_hashes(self, rng):
        workload = AdhocWorkload.synthesize(rng, peak_rate_per_hour=10.0)
        requests = workload.generate(Window(0, 2 * DAY))
        texts = [r.text_hash for r in requests]
        assert len(set(texts)) == len(texts)

    def test_template_skew(self, rng):
        workload = AdhocWorkload.synthesize(rng, n_templates=20, peak_rate_per_hour=40.0)
        requests = workload.generate(Window(0, 5 * DAY))
        counts = {}
        for r in requests:
            counts[r.template_hash] = counts.get(r.template_hash, 0) + 1
        top = max(counts.values())
        assert top > 2 * (len(requests) / 20)  # heavily skewed


class TestCompositeAndPresets:
    def test_composite_merges_sorted(self, rng):
        def parts():
            return [
                EtlWorkload.synthesize(
                    np.random.default_rng(1), n_pipelines=1, steps_per_pipeline=2
                ),
                BiWorkload.synthesize(np.random.default_rng(2), n_dashboards=1),
            ]

        merged = CompositeWorkload(parts()).generate(Window(0, 2 * DAY))
        times = [r.arrival_time for r in merged]
        assert times == sorted(times)
        # Fresh generators (same seeds): the union has every part's requests.
        a, b = parts()
        expected = len(a.generate(Window(0, 2 * DAY))) + len(b.generate(Window(0, 2 * DAY)))
        assert len(merged) == expected

    def test_empty_composite_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CompositeWorkload([])

    @pytest.mark.parametrize(
        "factory",
        [make_predictable_workload, make_unpredictable_workload, make_static_etl_workload],
    )
    def test_presets_generate_nonempty(self, factory):
        workload = factory(RngRegistry(3))
        requests = workload.generate(Window(0, 2 * DAY))
        assert len(requests) > 50
        assert all(0 <= r.arrival_time < 2 * DAY for r in requests)
