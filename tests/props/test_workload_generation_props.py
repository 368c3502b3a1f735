"""Array-path workload generation equals the per-candidate loops, bit for bit.

``poisson_arrivals`` evaluates its intensity once over all candidates,
``business_hours_profile`` and ``month_end_multiplier`` compute elementwise
over arrays, ``BiWorkload`` draws a dashboard's panel offsets as one block
and ``AdhocWorkload`` picks every template in one call.  Each promises the
exact output of the scalar loops kept in ``tests/props/arrival_oracle.py``:
the same arrival times (compared by ``repr``, each a Python ``float``), the
same request fields, and every generator left in the same
``bit_generator.state``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import DAY, HOUR, WEEK, Window
from repro.workloads.adhoc import AdhocWorkload
from repro.workloads.base import (
    CompositeWorkload,
    business_hours_profile,
    month_end_multiplier,
    poisson_arrivals,
)
from repro.workloads.bi import BiWorkload

from tests.props import arrival_oracle as oracle

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def windows(draw) -> Window:
    """Windows starting at 0 or mid-run, ending anywhere or on the 1800 s
    probe grid, up to three days long."""
    start = draw(st.sampled_from([0.0, None]))
    if start is None:
        start = draw(st.floats(min_value=0.0, max_value=40 * DAY))
    if draw(st.booleans()):
        end = start + 1800.0 * draw(st.integers(min_value=0, max_value=144))
    else:
        end = start + draw(st.floats(min_value=0.0, max_value=3 * DAY))
    return Window(start, end)


@st.composite
def profiles(draw) -> dict:
    """Business-hours shape: base and peak (either may be 0) and hours."""
    open_hour = draw(st.floats(min_value=0.0, max_value=20.0))
    return dict(
        base=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0])),
        peak=draw(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=40.0))),
        open_hour=open_hour,
        close_hour=draw(st.floats(min_value=open_hour + 0.5, max_value=24.0)),
    )


def assert_same_requests(library, reference) -> None:
    assert len(library) == len(reference)
    for got, want in zip(library, reference):
        assert type(got.arrival_time) is float
        assert repr(got.arrival_time) == repr(want.arrival_time)
        assert got.template.name == want.template.name
        assert got.instance_key == want.instance_key
        assert got.chained == want.chained


def assert_same_states(a, b) -> None:
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestIntensityHelpers:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=seeds,
        times=st.lists(st.floats(min_value=0.0, max_value=60 * DAY), max_size=40),
        shape=profiles(),
        boost=st.floats(min_value=1.0, max_value=4.0),
        days=st.integers(min_value=0, max_value=28),
    )
    def test_array_equals_scalar(self, seed, times, shape, boost, days):
        # Dense random times reach the rare hump values where squaring and
        # libm pow round differently; the probe grid covers every half-hour.
        dense = np.random.default_rng(seed).uniform(0.0, 2 * WEEK, 600).tolist()
        times = times + dense + [k * 1800.0 for k in range(48 * 7)]
        rates = business_hours_profile(np.array(times), **shape)
        multipliers = month_end_multiplier(np.array(times), boost, days)
        for i, t in enumerate(times):
            want = oracle.business_hours_profile(t, **shape)
            scalar = business_hours_profile(t, **shape)
            assert type(scalar) is float and scalar == want and rates[i] == want
            want = oracle.month_end_multiplier(t, boost, days)
            scalar = month_end_multiplier(t, boost, days)
            assert type(scalar) is float and scalar == want and multipliers[i] == want


class TestPoissonArrivals:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=seeds,
        window=windows(),
        shape=profiles(),
        spikes=st.frozensets(st.integers(min_value=0, max_value=45), max_size=8),
        spike=st.floats(min_value=1.0, max_value=6.0),
        boost=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_thinning_equals_oracle(self, seed, window, shape, spikes, spike, boost):
        def rate(t):
            base = business_hours_profile(t, **shape)
            base = base * np.where(np.isin(t // DAY, sorted(spikes)), spike, 1.0)
            return base * month_end_multiplier(t, boost)

        def scalar_rate(t):
            base = oracle.business_hours_profile(t, **shape)
            if int(t // DAY) in spikes:
                base *= spike
            return base * oracle.month_end_multiplier(t, boost)

        rng_lib, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = poisson_arrivals(rng_lib, window, rate)
        want = oracle.poisson_arrivals(rng_ref, window, scalar_rate)
        assert all(type(t) is float for t in got)
        assert [repr(t) for t in got] == [repr(t) for t in want]
        assert rng_lib.bit_generator.state == rng_ref.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds, window=windows(), rate=st.sampled_from([0.0, 0.3, 30.0]))
    def test_constant_rate_broadcasts(self, seed, window, rate):
        rng_lib, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = poisson_arrivals(rng_lib, window, lambda t: rate)
        want = oracle.poisson_arrivals(rng_ref, window, lambda t: rate)
        assert [repr(t) for t in got] == [repr(t) for t in want]
        assert rng_lib.bit_generator.state == rng_ref.bit_generator.state


def adhoc(seed: int, params: dict) -> AdhocWorkload:
    return AdhocWorkload.synthesize(np.random.default_rng(seed), **params)


def bi(seed: int, params: dict, spread: float, base: float) -> BiWorkload:
    workload = BiWorkload.synthesize(np.random.default_rng(seed), **params)
    for dashboard in workload.dashboards:
        dashboard.panel_spread_seconds = spread
        dashboard.refreshes_per_hour_base = base
    return workload


adhoc_params = st.fixed_dictionaries(
    dict(
        n_templates=st.integers(min_value=1, max_value=12),
        peak_rate_per_hour=st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=30.0)),
        base_rate_per_hour=st.sampled_from([0.0, 0.05, 0.5]),
        spike_probability_per_day=st.sampled_from([0.0, 0.25, 1.0]),
        spike_multiplier=st.floats(min_value=1.0, max_value=5.0),
        month_end_boost=st.floats(min_value=1.0, max_value=3.0),
        template_skew=st.floats(min_value=0.0, max_value=2.0),
    )
)

bi_params = st.fixed_dictionaries(
    dict(
        n_dashboards=st.integers(min_value=1, max_value=3),
        panels_per_dashboard=st.integers(min_value=0, max_value=8),
        peak_refreshes_per_hour=st.floats(min_value=0.0, max_value=8.0),
    )
)
spreads = st.sampled_from([0.0, 4.0, 900.0, 2 * HOUR])
bases = st.sampled_from([0.0, 0.2])


class TestGenerators:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, window=windows(), params=adhoc_params)
    def test_adhoc_equals_oracle(self, seed, window, params):
        library, reference = adhoc(seed, params), adhoc(seed, params)
        assert_same_requests(library.generate(window), oracle.generate(reference, window))
        assert_same_states(library, reference)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, window=windows(), params=bi_params, spread=spreads, base=bases)
    def test_bi_equals_oracle(self, seed, window, params, spread, base):
        library, reference = bi(seed, params, spread, base), bi(seed, params, spread, base)
        assert_same_requests(library.generate(window), oracle.generate(reference, window))
        assert_same_states(library, reference)

    @settings(max_examples=30, deadline=None)
    @given(
        seeds=st.tuples(seeds, seeds),
        window=windows(),
        a=adhoc_params,
        b=bi_params,
        spread=spreads,
        base=bases,
    )
    def test_composite_equals_oracle(self, seeds, window, a, b, spread, base):
        def build():
            return CompositeWorkload([adhoc(seeds[0], a), bi(seeds[1], b, spread, base)])

        library, reference = build(), build()
        assert_same_requests(library.generate(window), oracle.generate(reference, window))
        for lib_part, ref_part in zip(library.parts, reference.parts):
            assert_same_states(lib_part, ref_part)
