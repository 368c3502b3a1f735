"""Tests for statistics helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import StreamingStats, ewma, median, percentile, summarize


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_value(self):
        assert percentile([5.0], 50) == 5.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_p99_close_to_max(self):
        values = list(range(1000))
        assert percentile(values, 99) == pytest.approx(989.01)


class TestEwma:
    def test_empty_is_zero(self):
        assert ewma([], 0.5) == 0.0

    def test_single_value_is_itself(self):
        assert ewma([42.0], 0.3) == 42.0

    def test_alpha_one_returns_last(self):
        assert ewma([1.0, 2.0, 3.0], 1.0) == 3.0

    def test_weighting(self):
        # out = 0.5*2 + 0.5*(0.5*1 + 0.5*... ) for [1, 2] with alpha .5
        assert ewma([1.0, 2.0], 0.5) == pytest.approx(1.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ewma([1.0], 0.0)
        with pytest.raises(ValueError):
            ewma([1.0], 1.5)


class TestStreamingStats:
    def test_mean_and_variance(self):
        stats = StreamingStats()
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            stats.add(v)
        assert stats.mean == pytest.approx(5.0)
        assert stats.std == pytest.approx(math.sqrt(32 / 8), rel=0.1)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_zscore_zero_for_constant_stream(self):
        stats = StreamingStats()
        for _ in range(10):
            stats.add(3.0)
        assert stats.zscore(100.0) == 0.0

    def test_zscore_detects_outlier(self):
        stats = StreamingStats()
        for v in range(20):
            stats.add(float(v % 3))
        assert stats.zscore(50.0) > 3.0

    def test_zscore_needs_two_samples(self):
        stats = StreamingStats()
        stats.add(1.0)
        assert stats.zscore(99.0) == 0.0


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s["count"] == 0
        assert s["p99"] == 0.0

    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["p50"] == pytest.approx(2.0)
        assert s["max"] == 3.0


# --------------------------------------------------------------------------
# Bit-identity against numpy, the oracle the sort-once path replaced.


def same_bits(got, expected) -> bool:
    """Equal as floats, sign of zero included; NaN matches NaN."""
    if type(got) is not float:
        return False
    if math.isnan(expected):
        return math.isnan(got)
    return got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


def oracle_percentile(values, q) -> float:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in numpy's lerp
        return float(np.percentile(arr, q))


special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, 5e-324, -5e-324, 1e308])
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
elements = st.one_of(special, finite, st.integers(-5, 5))
samples = st.one_of(
    st.lists(elements, max_size=60),
    st.lists(st.sampled_from([0.0, -0.0]), max_size=60),  # signed-zero ties only
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), max_size=30),  # heavy duplicates
    st.lists(finite, min_size=1, max_size=300),
)
quantiles = st.one_of(st.sampled_from([0, 50, 95, 99, 100, 0.0, 100.0]), st.floats(0.0, 100.0))


class TestMedianMatchesNumpy:
    """``median`` is ``numpy.median`` for the non-empty NaN-free inputs the
    library passes it (the sign of a zero result is up to the sort)."""

    @given(
        st.lists(
            st.one_of(special, finite, st.integers(-(10**12), 10**12)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=800, deadline=None)
    def test_equal_to_numpy(self, values):
        got = median(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            expected = float(np.median(values))
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestPercentileMatchesNumpy:
    @given(samples, quantiles, st.booleans())
    @settings(max_examples=800, deadline=None)
    def test_bit_identical(self, values, q, as_array):
        inp = np.asarray(values, dtype=float) if as_array else list(values)
        assert same_bits(percentile(inp, q), oracle_percentile(values, q))

    @given(samples, quantiles, st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_nan_anywhere_is_nan(self, values, q, as_array, data):
        values = list(values)
        values.insert(data.draw(st.integers(0, len(values))), math.nan)
        inp = np.asarray(values, dtype=float) if as_array else values
        assert math.isnan(percentile(inp, q))
        assert math.isnan(oracle_percentile(values, q))

    @given(st.lists(st.integers(-(10**6), 10**6), max_size=50), quantiles)
    @settings(max_examples=300, deadline=None)
    def test_int_inputs(self, values, q):
        assert same_bits(percentile(values, q), oracle_percentile(values, q))
        assert same_bits(percentile(np.asarray(values, dtype=np.int64), q), oracle_percentile(values, q))

    def test_two_dimensional_array_is_flattened(self):
        arr = np.arange(12.0).reshape(3, 4)[::-1]
        assert same_bits(percentile(arr, 37.5), float(np.percentile(arr, 37.5)))

    @given(samples)
    @settings(max_examples=300, deadline=None)
    def test_summarize_bit_identical(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # mean of ±inf
            out = summarize(values)
        for key, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert same_bits(out[key], oracle_percentile(values, q))
