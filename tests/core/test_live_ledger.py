"""LiveLedger: streaming realized-vs-projected savings over report periods.

The projection is one ``QueryReplay`` over the period's streamed rows
(whose exactness ``tests/props/test_replay_kernels.py`` holds against the
scalar oracle); these tests pin the wiring — idempotent ingestion, the
projection equal to the cost model's replay and silent in the trace, the
aligned-reconciliation zero-divergence invariant, period rolls, the
durable round-trip, and the optimizer integration (every onboarded
optimizer streams its open period once per tick).
"""

import dataclasses

import pytest

from repro import obs
from repro.common.errors import RecoveryError
from repro.common.simtime import HOUR, Window
from repro.core.ledger import LiveLedger
from repro.core.optimizer import OptimizerConfig, WarehouseOptimizer
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.model import SavingsEstimate, WarehouseCostModel
from repro.costmodel.replay import QueryReplay, ReplayResult
from repro.durability.codec import state_checksum
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

from tests.conftest import make_account, make_requests, make_template

PERIOD = Window(0.0, 4 * HOUR)
ORIGINAL = WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=600.0)


def make_records(n=40, start=100.0, spacing=240.0) -> list[QueryRecord]:
    return [
        QueryRecord(
            query_id=i,
            warehouse="WH",
            text_hash=f"x{i}",
            template_hash=f"t{i % 3}",
            arrival_time=start + i * spacing,
            start_time=start + i * spacing,
            end_time=start + i * spacing + 30.0 + (i % 5) * 11.0,
            execution_seconds=30.0 + (i % 5) * 11.0,
            warehouse_size=WarehouseSize.M,
            cache_hit_ratio=0.5,
            cluster_number=1,
            chained=i % 4 == 0,
            completed=True,
        )
        for i in range(n)
    ]


def make_replay(records) -> QueryReplay:
    return QueryReplay(
        LatencyScalingModel().fit(records), GapModel().fit(records), ClusterCountPredictor()
    )


def make_ledger(records, period=PERIOD) -> LiveLedger:
    return LiveLedger("WH", make_replay(records), period)


def full_credits(ledger: LiveLedger, records, config=ORIGINAL) -> float:
    return ledger.replay.replay(records, config, ledger.period).credits


class TestIngestion:
    def test_ingest_is_idempotent_per_query_id(self):
        records = make_records()
        ledger = make_ledger(records)
        assert ledger.ingest(records, now=HOUR) == len(records)
        assert ledger.ingest(records, now=2 * HOUR) == 0
        assert ledger.rows_streamed == len(records)
        assert ledger.cursor == 2 * HOUR

    def test_rows_outside_period_skipped(self):
        records = make_records()
        late = make_records(n=3, start=PERIOD.end + 50.0)
        ledger = make_ledger(records)
        assert ledger.ingest(records + late, now=HOUR) == len(records)


class TestProjection:
    def test_mid_period_projection_is_the_cost_models_replay(self):
        account, wh = make_account(
            seed=41, size=WarehouseSize.M, auto_suspend_seconds=600.0, max_clusters=2
        )
        template = make_template("proj", base_work_seconds=40.0, n_partitions=2)
        account.schedule_workload(
            wh, make_requests(template, [30.0 + i * 170.0 for i in range(80)])
        )
        account.run_until(2 * HOUR)
        client = CloudWarehouseClient(account)
        cost_model = WarehouseCostModel(client, wh).fit(Window(0.0, 2 * HOUR))
        ledger = LiveLedger(wh, cost_model.replay, PERIOD)
        # A partial ingest: only the rows completed by the first two hours.
        ledger.ingest(client.query_history(wh, Window(0.0, 2 * HOUR)), now=2 * HOUR)
        visible = [
            r for r in account.telemetry.query_history(wh, PERIOD) if r.end_time <= 2 * HOUR
        ]
        assert 0 < ledger.rows_streamed == len(visible)
        configs = (
            ORIGINAL,
            WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=60.0, max_clusters=2),
        )
        for config in configs:
            projected = ledger.projection(config)
            expected = cost_model.replay.history(visible, PERIOD).cost(config)
            for name in (f.name for f in dataclasses.fields(ReplayResult)):
                assert getattr(projected, name) == getattr(expected, name), name

    def test_projection_adds_no_trace_record(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records[:20], now=2 * HOUR)
        with obs.observed() as rec:
            before = len(rec.sink)
            ledger.projection(ORIGINAL)
            ledger.projection(WarehouseConfig(size=WarehouseSize.L))
            assert len(rec.sink) == before
            # The session is live: the observed replay of the same rows records.
            ledger.replay.replay(records[:20], ORIGINAL, PERIOD)
            assert len(rec.sink) > before


    def test_unchanged_period_reuses_its_projection(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records[:20], now=2 * HOUR)
        first = ledger.projection(ORIGINAL)
        assert ledger.projection(ORIGINAL) is first
        assert ledger.projection(WarehouseConfig(size=WarehouseSize.L)) is not first
        # A fresh row changes the question.
        ledger.ingest(records[:21], now=2 * HOUR)
        assert ledger.projection(ORIGINAL).credits == full_credits(ledger, records[:21])

    def test_refit_in_place_is_not_served_from_the_memo(self):
        # The period's rows stay the same while the cost model refits the
        # models its replay holds: the second projection must be the
        # refitted model's answer, not the first one kept.
        account, wh = make_account(
            seed=43, size=WarehouseSize.M, auto_suspend_seconds=600.0, max_clusters=2
        )
        template = make_template("refit", base_work_seconds=40.0, n_partitions=2)
        account.schedule_workload(
            wh, make_requests(template, [30.0 + i * 170.0 for i in range(40)])
        )
        account.run_until(2 * HOUR)
        client = CloudWarehouseClient(account)
        cost_model = WarehouseCostModel(client, wh).fit(Window(0.0, 2 * HOUR))
        ledger = LiveLedger(wh, cost_model.replay, Window(0.0, 2 * HOUR))
        ledger.ingest(client.query_history(wh, Window(0.0, 2 * HOUR)), now=2 * HOUR)
        small = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=60.0, max_clusters=2)
        before = ledger.projection(small)
        # Two more hours at another size give the latency model an elasticity.
        client.alter_warehouse(wh, size=WarehouseSize.S)
        account.schedule_workload(
            wh, make_requests(template, [2 * HOUR + 30.0 + i * 170.0 for i in range(40)])
        )
        account.run_until(4 * HOUR)
        cost_model.fit(Window(0.0, 4 * HOUR))
        after = ledger.projection(small)
        rows = account.telemetry.query_history(wh, Window(0.0, 2 * HOUR))
        expected = cost_model.replay.history(rows, ledger.period).cost(small)
        assert after.credits != before.credits
        for name in (f.name for f in dataclasses.fields(ReplayResult)):
            assert getattr(after, name) == getattr(expected, name), name


class TestReconcile:
    def test_aligned_exact_reconcile_divergence_is_zero(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        estimate = SavingsEstimate(PERIOD, full_credits(ledger, records), 1.0)
        entry = ledger.reconcile(estimate, ORIGINAL)
        assert entry.aligned
        assert entry.divergence == 0.0
        assert entry.projected_credits == estimate.without_keebo_credits
        assert entry.rows_streamed == len(records)

    def test_unaligned_period_counted_not_scored(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        stretched = Window(PERIOD.start, PERIOD.end + 600.0)
        estimate = SavingsEstimate(stretched, 12.0, 1.0)
        entry = ledger.reconcile(estimate, ORIGINAL)
        assert not entry.aligned
        assert entry.divergence == 0.0
        assert ledger.unaligned_periods == 1

    def test_roll_opens_a_fresh_period(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        next_period = Window(PERIOD.end, PERIOD.end + 4 * HOUR)
        ledger.roll(next_period)
        assert ledger.period == next_period
        assert ledger.rows_streamed == 0
        # Old ids are forgotten with the period: a fresh period re-admits.
        shifted = make_records(n=5, start=PERIOD.end + 10.0)
        assert ledger.ingest(shifted, now=PERIOD.end + HOUR) == 5


class TestDurability:
    def test_state_roundtrip_byte_identical(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records[:30], now=2 * HOUR)
        state = ledger.state_dict()
        restored = make_ledger(records)
        # Re-feed sees the whole history; rows completed after the cursor
        # (or outside the period) must be filtered back out.
        restored.load_state_dict(state, records)
        assert restored.state_dict() == state
        assert state_checksum(restored.state_dict()) == state_checksum(state)
        assert (
            restored.projection(ORIGINAL).credits
            == ledger.projection(ORIGINAL).credits
        )

    def test_restore_ignores_keys_of_the_earlier_streaming_state(self):
        """A ``repro.durability/3`` checkpoint written before the ledger
        became one replay also carried ``rows_observed`` and ``fit_key``."""
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records[:30], now=2 * HOUR)
        state = ledger.state_dict()
        earlier = {**state, "replay": {**state["replay"], "rows_observed": 30, "fit_key": [1, 1]}}
        restored = make_ledger(records)
        restored.load_state_dict(earlier, records)
        assert restored.state_dict() == state

    def test_restore_with_missing_rows_fails(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        state = ledger.state_dict()
        restored = make_ledger(records)
        with pytest.raises(RecoveryError):
            restored.load_state_dict(state, records[:-1])


def onboarded_optimizer(seed=37) -> WarehouseOptimizer:
    """An optimizer onboarded at 12 h on a steady one-template workload."""
    account, wh = make_account(
        seed=seed, size=WarehouseSize.M, auto_suspend_seconds=600.0, max_clusters=2
    )
    template = make_template("live", base_work_seconds=15.0, n_partitions=2)
    times = [10.0 + i * 400.0 for i in range(int(24 * 9))]
    account.schedule_workload(wh, make_requests(template, times))
    account.run_until(12 * HOUR)
    config = OptimizerConfig(
        training_window=12 * HOUR,
        onboarding_episodes=1,
        episode_length=6 * HOUR,
        retrain_interval=12 * HOUR,
        retrain_episodes=0,
        decision_interval=900.0,
        report_interval=3 * HOUR,
        confidence_tau=0.0,
    )
    optimizer = WarehouseOptimizer(account, wh, config=config)
    optimizer.onboard()
    return optimizer


class TestOptimizerIntegration:
    def test_live_ledger_reconciles_bit_identically(self):
        optimizer = onboarded_optimizer()
        optimizer.account.run_until(22 * HOUR)
        ledger = optimizer.live_ledger
        assert ledger is not None
        aligned = [e for e in ledger.reconciliations if e.aligned]
        assert aligned, "no report period closed on the tick grid"
        # The headline invariant: streamed projection == full replay, bit
        # for bit, on every aligned period close.
        for entry in aligned:
            assert entry.divergence == 0.0
            assert entry.projected_credits == entry.estimated_credits
        assert any(e.rows_streamed > 0 for e in ledger.reconciliations)

    def test_every_onboarded_optimizer_opens_a_period_at_onboarding(self):
        optimizer = onboarded_optimizer(seed=38)
        ledger = optimizer.live_ledger
        assert isinstance(ledger, LiveLedger)
        report = optimizer.config.report_interval
        assert ledger.period == Window(12 * HOUR, 12 * HOUR + report)
        assert ledger.cursor == 12 * HOUR
        assert ledger.rows_streamed == 0
        assert ledger.reconciliations == []

    def test_ingest_runs_once_per_tick(self, monkeypatch):
        ticks, ingests = [], []
        tick, ingest = WarehouseOptimizer._tick, LiveLedger.ingest

        def counted_tick(self, now):
            if self.onboarded and not self.paused:
                ticks.append(now)
            tick(self, now)

        def counted_ingest(self, records, now):
            ingests.append(now)
            return ingest(self, records, now)

        monkeypatch.setattr(WarehouseOptimizer, "_tick", counted_tick)
        monkeypatch.setattr(LiveLedger, "ingest", counted_ingest)
        optimizer = onboarded_optimizer()
        optimizer.account.run_until(22 * HOUR)
        # Period-close ticks included: the reconciliation reads the rows the
        # tick already streamed instead of streaming again.
        assert optimizer.live_ledger.reconciliations
        assert ticks and ingests == ticks
