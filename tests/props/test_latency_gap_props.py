"""Property-based tests for the latency scaling model and gap model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import GAMMA_BOUNDS, LatencyScalingModel
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

from tests.props import replay_oracle as oracle

sizes = st.sampled_from(
    [WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M, WarehouseSize.L, WarehouseSize.XL]
)


def rec(template, size, latency, arrival=0.0, hit=1.0, chained=False, end=None):
    return QueryRecord(
        query_id=int(arrival * 7 + latency),
        warehouse="WH",
        text_hash=f"{template}:{arrival}",
        template_hash=template,
        arrival_time=arrival,
        start_time=arrival,
        end_time=end if end is not None else arrival + latency,
        execution_seconds=latency,
        warehouse_size=size,
        cache_hit_ratio=hit,
        chained=chained,
        completed=True,
    )


# Observations: (size, latency) pairs for one template.
observations = st.lists(
    st.tuples(sizes, st.floats(min_value=0.01, max_value=1000.0)),
    min_size=1,
    max_size=30,
)


class TestLatencyModelProperties:
    @given(observations)
    @settings(max_examples=150, deadline=None)
    def test_gamma_always_in_bounds(self, obs):
        records = [rec("t", size, latency) for size, latency in obs]
        model = LatencyScalingModel().fit(records)
        assert GAMMA_BOUNDS[0] <= model.gamma("t") <= GAMMA_BOUNDS[1]
        assert GAMMA_BOUNDS[0] <= model.warehouse_gamma <= GAMMA_BOUNDS[1]

    @given(observations, sizes, sizes)
    @settings(max_examples=150, deadline=None)
    def test_rescale_monotone_in_size(self, obs, from_size, to_size):
        """Rescaling to a strictly bigger size never predicts more latency."""
        records = [rec("t", size, latency) for size, latency in obs]
        model = LatencyScalingModel().fit(records)
        record = rec("t", from_size, 10.0)
        small = model.rescale(record, to_size)
        bigger = model.rescale(record, to_size.step(1))
        assert bigger <= small + 1e-9

    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_rescale_identity_at_same_size(self, obs):
        records = [rec("t", size, latency) for size, latency in obs]
        model = LatencyScalingModel().fit(records)
        record = rec("t", WarehouseSize.M, 7.0)
        assert model.rescale(record, WarehouseSize.M) == pytest.approx(7.0)

    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_rescale_always_positive_and_finite(self, obs):
        records = [rec("t", size, latency) for size, latency in obs]
        model = LatencyScalingModel().fit(records)
        for target in (WarehouseSize.XS, WarehouseSize.SIZE_6XL):
            out = model.rescale(rec("t", WarehouseSize.M, 5.0), target)
            assert np.isfinite(out) and out > 0

    @given(
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recovers_planted_gamma(self, gamma, base):
        """Noise-free scaling laws are recovered exactly."""
        records = [
            rec("t", size, base / size.speedup**gamma)
            for size in (WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M)
            for _ in range(2)
        ]
        model = LatencyScalingModel().fit(records)
        assert model.gamma("t") == pytest.approx(gamma, abs=0.02)


chain_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),  # gap after previous end
        st.floats(min_value=1.0, max_value=100.0),  # duration
        st.booleans(),  # chained flag
    ),
    min_size=1,
    max_size=25,
)


class TestGapModelProperties:
    @given(chain_lists)
    @settings(max_examples=150, deadline=None)
    def test_classification_is_total_and_ordered(self, chain):
        records = []
        t = 0.0
        for i, (gap, duration, chained) in enumerate(chain):
            t += gap
            records.append(rec(f"tpl{i % 3}", WarehouseSize.S, duration, arrival=t, chained=chained))
            t += duration
        model = GapModel().fit(records)
        observations = oracle.classify_with_arrays(model, records)
        assert len(observations) == len(records)
        arrivals = [o.record.arrival_time for o in observations]
        assert arrivals == sorted(arrivals)
        # Lags are never negative and the first record is never chained.
        assert all(o.lag_after_predecessor >= 0 for o in observations)
        assert not observations[0].chained

    @given(chain_lists)
    @settings(max_examples=100, deadline=None)
    def test_no_flags_no_support_means_no_chains(self, chain):
        """With flags disabled, chains need repeated statistical support."""
        records = []
        t = 0.0
        for i, (gap, duration, chained) in enumerate(chain):
            t += gap + 200.0  # gaps too wide for the detector window
            records.append(rec(f"tpl{i}", WarehouseSize.S, duration, arrival=t))
            t += duration
        model = GapModel(use_flags=False).fit(records)
        observations = oracle.classify_with_arrays(model, records)
        assert not any(o.chained for o in observations)


class TestClassifyEquivalence:
    """The oracle's scalar ``classify`` and ``classify_arrays`` are two
    views of the same classification and must agree bit for bit."""

    @staticmethod
    def _history(chain):
        records = []
        t = 0.0
        for i, (gap, duration, chained) in enumerate(chain):
            t += gap
            records.append(
                rec(f"tpl{i % 4}", WarehouseSize.S, duration, arrival=t, chained=chained)
            )
            t += duration * 0.25  # overlapping arrivals: negative observed lags
        return records

    @given(chain_lists, st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_classify_arrays_bit_identical_to_classify(self, chain, use_flags, fit):
        records = self._history(chain)
        model = GapModel(use_flags=use_flags)
        if fit:
            model.fit(records)
        observations = oracle.classify(model, records)
        ordered = sorted(records, key=lambda r: r.arrival_time)
        arrivals = np.asarray([r.arrival_time for r in ordered])
        end_times = np.asarray([r.end_time for r in ordered])
        templates = [r.template_hash for r in ordered]
        flags = np.asarray([r.chained for r in ordered], dtype=bool)
        chained_arr, lags_arr = model.classify_arrays(
            arrivals, end_times, templates, flags
        )
        assert [bool(c) for c in chained_arr] == [o.chained for o in observations]
        # Bit-identical, not approx: the replay's chain recurrence consumes
        # these lags and its exactness contract is bitwise.
        assert [float(l) for l in lags_arr] == [
            o.lag_after_predecessor for o in observations
        ]
