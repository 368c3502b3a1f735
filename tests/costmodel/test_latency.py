"""Tests for the latency scaling model."""

import pytest

from repro.costmodel.latency import DEFAULT_GAMMA, LatencyScalingModel
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize


def obs(template: str, size: WarehouseSize, latency: float, hit: float = 1.0) -> QueryRecord:
    return QueryRecord(
        query_id=0,
        warehouse="WH",
        text_hash=template + "x",
        template_hash=template,
        arrival_time=0.0,
        execution_seconds=latency,
        warehouse_size=size,
        cache_hit_ratio=hit,
        completed=True,
    )


def perfect_scaling_records(template="tpl", base=16.0, gamma=1.0) -> list[QueryRecord]:
    return [
        obs(template, size, base / size.speedup**gamma)
        for size in [WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M, WarehouseSize.L]
        for _ in range(3)
    ]


class TestFit:
    def test_recovers_perfect_scaling(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=1.0))
        assert model.gamma("tpl") == pytest.approx(1.0, abs=0.01)

    def test_recovers_sublinear_scaling(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=0.5))
        assert model.gamma("tpl") == pytest.approx(0.5, abs=0.01)

    def test_single_size_falls_back_to_pooled(self):
        records = perfect_scaling_records("multi", gamma=0.9)
        records += [obs("single", WarehouseSize.M, 8.0)] * 4
        model = LatencyScalingModel().fit(records)
        assert model.gamma("single") == pytest.approx(model.warehouse_gamma)
        assert model.warehouse_gamma == pytest.approx(0.9, abs=0.01)

    def test_unknown_template_uses_warehouse_gamma(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=0.8))
        assert model.gamma("never-seen") == pytest.approx(0.8, abs=0.01)

    def test_unfitted_uses_default(self):
        assert LatencyScalingModel().gamma("x") == DEFAULT_GAMMA

    def test_no_cross_size_data_uses_default(self):
        records = [obs("a", WarehouseSize.M, 5.0)] * 5
        model = LatencyScalingModel().fit(records)
        assert model.warehouse_gamma == DEFAULT_GAMMA

    def test_cold_runs_excluded_from_fit(self):
        records = perfect_scaling_records(gamma=1.0)
        # Cold garbage observations that would destroy the fit if included.
        records += [obs("tpl", WarehouseSize.L, 500.0, hit=0.0)] * 10
        model = LatencyScalingModel().fit(records)
        assert model.gamma("tpl") == pytest.approx(1.0, abs=0.01)

    def test_gamma_clipped_to_bounds(self):
        # Anti-scaling data (bigger = slower) clips at 0 instead of negative.
        records = [
            obs("weird", WarehouseSize.XS, 1.0),
            obs("weird", WarehouseSize.L, 100.0),
            obs("weird", WarehouseSize.XS, 1.0),
            obs("weird", WarehouseSize.L, 100.0),
        ]
        model = LatencyScalingModel().fit(records)
        assert model.gamma("weird") == 0.0

    def test_n_templates(self):
        model = LatencyScalingModel().fit(perfect_scaling_records())
        assert model.n_templates == 1


class TestRescale:
    def test_same_size_identity(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=1.0))
        record = obs("tpl", WarehouseSize.M, 4.0)
        assert model.rescale(record, WarehouseSize.M) == pytest.approx(4.0)

    def test_downsize_slows(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=1.0))
        record = obs("tpl", WarehouseSize.M, 4.0)
        assert model.rescale(record, WarehouseSize.XS) == pytest.approx(16.0)

    def test_upsize_speeds(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=1.0))
        record = obs("tpl", WarehouseSize.M, 4.0)
        assert model.rescale(record, WarehouseSize.XL) == pytest.approx(1.0)

    def test_cold_records_scale_conservatively(self):
        model = LatencyScalingModel().fit(perfect_scaling_records(gamma=1.0))
        warm = obs("tpl", WarehouseSize.M, 4.0, hit=1.0)
        cold = obs("tpl", WarehouseSize.M, 4.0, hit=0.0)
        warm_scaled = model.rescale(warm, WarehouseSize.XS)
        cold_scaled = model.rescale(cold, WarehouseSize.XS)
        assert cold_scaled < warm_scaled  # the cold I/O part does not scale

