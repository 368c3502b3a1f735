"""Tests for query templates, requests and telemetry records."""

import copy
import pickle
from dataclasses import asdict, fields, replace

import pytest

from repro.common.errors import ConfigurationError
from repro.warehouse.queries import QueryRecord, QueryRequest, QueryTemplate, hash_text
from repro.warehouse.types import WarehouseSize


def template(**kw) -> QueryTemplate:
    defaults = dict(name="t", base_work_seconds=10.0)
    defaults.update(kw)
    return QueryTemplate(**defaults)


class TestQueryTemplate:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            template(base_work_seconds=0)
        with pytest.raises(ConfigurationError):
            template(scale_exponent=2.0)
        with pytest.raises(ConfigurationError):
            template(cold_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            template(bytes_scanned=-1)

    def test_warm_latency_scales_with_size(self):
        t = template(scale_exponent=1.0)
        assert t.warm_latency(WarehouseSize.XS) == pytest.approx(10.0)
        assert t.warm_latency(WarehouseSize.S) == pytest.approx(5.0)
        assert t.warm_latency(WarehouseSize.M) == pytest.approx(2.5)

    def test_zero_exponent_ignores_size(self):
        t = template(scale_exponent=0.0)
        assert t.warm_latency(WarehouseSize.XS) == t.warm_latency(WarehouseSize.SIZE_6XL)

    def test_template_hash_stable(self):
        assert template().template_hash == template().template_hash
        assert template(name="a").template_hash != template(name="b").template_hash


class TestExecutionMemo:
    @pytest.mark.parametrize(
        "min_memory",
        [WarehouseSize.XS, WarehouseSize.M, WarehouseSize.XL, WarehouseSize.SIZE_6XL],
    )
    def test_memo_is_the_definitions_at_every_size(self, min_memory):
        t = template(scale_exponent=0.7, min_memory_size=min_memory, spill_multiplier=2.5)
        for size in WarehouseSize:
            assert t.execution(size) == (t.warm_latency(size), t.spill_steps(size))
        assert t.template_hash == hash_text("template:t")

    def test_footprint_drops_repeats_in_first_seen_order(self):
        t = template(partitions=("b", "a", "b", "c", "a"))
        assert t.footprint == ("b", "a", "c")
        assert template().footprint == ()

    def test_equality_hash_repr_and_pickle_see_only_the_fields(self):
        t = template(min_memory_size=WarehouseSize.L, partitions=("p1", "p0", "p1"))
        twin = template(min_memory_size=WarehouseSize.L, partitions=("p1", "p0", "p1"))
        assert t == twin and hash(t) == hash(twin)
        assert "_execution" not in repr(t) and "template_hash" not in repr(t)
        assert "footprint" not in repr(t)
        assert list(asdict(t)) == [f.name for f in fields(t)]
        payload = pickle.dumps(t)
        assert b"_execution" not in payload and b"template_hash" not in payload
        assert b"footprint" not in payload
        for clone in (pickle.loads(payload), copy.deepcopy(t), replace(t)):
            assert clone == t and hash(clone) == hash(t)
            assert clone.template_hash == t.template_hash
            assert clone.footprint == t.footprint == ("p1", "p0")
            assert [clone.execution(s) for s in WarehouseSize] == [
                t.execution(s) for s in WarehouseSize
            ]


class TestQueryRequest:
    def test_text_hash_varies_with_instance_key(self):
        t = template()
        r1 = QueryRequest(t, 0.0, instance_key="1")
        r2 = QueryRequest(t, 0.0, instance_key="2")
        assert r1.text_hash != r2.text_hash
        assert r1.template_hash == r2.template_hash

    def test_same_instance_key_same_text_hash(self):
        t = template()
        assert (
            QueryRequest(t, 0.0, instance_key="d1").text_hash
            == QueryRequest(t, 5.0, instance_key="d1").text_hash
        )

    def test_no_query_text_in_hashes(self):
        # The hash is a fixed-width hex digest, not the text.
        t = template(name="SELECT secret FROM customers")
        request = QueryRequest(t, 0.0)
        assert "secret" not in request.text_hash
        assert len(request.text_hash) == 16


class TestQueryRecord:
    def test_total_seconds(self):
        record = QueryRecord(
            query_id=1,
            warehouse="WH",
            text_hash="x",
            template_hash="y",
            arrival_time=0.0,
            queued_seconds=2.0,
            execution_seconds=5.0,
        )
        assert record.total_seconds == 7.0


class TestHashText:
    def test_deterministic(self):
        assert hash_text("abc") == hash_text("abc")

    def test_distinct(self):
        assert hash_text("abc") != hash_text("abd")
