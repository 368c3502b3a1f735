"""Edge-case tests for warehouse lifecycle transitions and cluster bounds."""

import pytest

from repro.common.errors import WarehouseError
from repro.common.simtime import HOUR, MINUTE
from repro.warehouse.account import Account
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.cluster import ClusterState
from repro.warehouse.types import WarehouseSize, WarehouseState

from tests.conftest import drive, make_account, make_requests, make_template


class TestAlterWhileSuspended:
    def test_resize_while_suspended_applies_on_resume(self):
        account, wh = make_account(size=WarehouseSize.S)
        warehouse = account.warehouse(wh)
        assert warehouse.state == WarehouseState.SUSPENDED
        warehouse.alter(size=WarehouseSize.L)
        template = make_template("x", base_work_seconds=8.0, scale_exponent=1.0, n_partitions=0)
        drive(account, wh, make_requests(template, [10.0]), 5 * MINUTE)
        record = account.telemetry.query_history(wh)[0]
        assert record.warehouse_size == WarehouseSize.L

    def test_suspend_interval_change_while_suspended(self):
        account, wh = make_account(auto_suspend_seconds=600.0)
        account.warehouse(wh).alter(auto_suspend_seconds=60.0)
        template = make_template("x", base_work_seconds=2.0)
        drive(account, wh, make_requests(template, [10.0]), 10 * MINUTE)
        # With the new 60s interval, a 10-minute horizon sees a suspend.
        assert account.warehouse(wh).state == WarehouseState.SUSPENDED


class TestResumeEdges:
    def test_resume_while_resuming_is_noop(self):
        account, wh = make_account()
        warehouse = account.warehouse(wh)
        template = make_template("x", base_work_seconds=2.0)
        account.schedule_workload(wh, make_requests(template, [10.0]))
        account.run_until(10.5)  # mid provisioning
        assert warehouse.state == WarehouseState.RESUMING
        warehouse.resume()  # explicit resume during RESUMING
        account.run_until(MINUTE)
        assert warehouse.state == WarehouseState.RUNNING
        assert len(warehouse.active_clusters()) == warehouse.config.min_clusters

    def test_suspend_then_resume_drops_then_rebuilds(self):
        account, wh = make_account()
        warehouse = account.warehouse(wh)
        drive(account, wh, make_requests(make_template("x", base_work_seconds=2.0), [5.0]), MINUTE)
        warehouse.suspend()
        assert warehouse.clusters == {}
        warehouse.resume()
        account.run_until(2 * MINUTE)
        assert warehouse.state == WarehouseState.RUNNING

    def test_suspend_while_resuming_with_a_queue_is_refused(self):
        # Suspending here used to strand the queued query: SUSPENDED with
        # queue_length 1, no row and nothing pending to ever run it.
        account = Account(seed=7)
        warehouse = account.create_warehouse("WH")
        account.schedule_workload("WH", make_requests(make_template("x"), [10.0]))
        account.run_until(10.5)
        assert warehouse.state == WarehouseState.RESUMING
        assert warehouse.queue_length == 1
        with pytest.raises(WarehouseError, match="queued"):
            CloudWarehouseClient(account).suspend_warehouse("WH")
        account.run_until(HOUR)
        assert len(account.telemetry.query_history("WH")) == 1
        assert warehouse.state == WarehouseState.SUSPENDED
        assert warehouse.queue_length == 0
        assert account.sim.pending_events == 0

    def test_suspend_while_resuming_idle_cancels_the_resume(self):
        account, wh = make_account()
        warehouse = account.warehouse(wh)
        warehouse.resume()
        assert warehouse.state == WarehouseState.RESUMING
        warehouse.suspend()
        assert warehouse.state == WarehouseState.SUSPENDED
        assert account.sim.pending_events == 0

    def test_query_arriving_during_resume_waits_for_clusters(self):
        account, wh = make_account()
        template = make_template("x", base_work_seconds=2.0)
        account.schedule_workload(wh, make_requests(template, [10.0, 10.2]))
        account.run_until(5 * MINUTE)
        records = account.telemetry.query_history(wh)
        assert len(records) == 2
        # Both queries started at or after the warehouse finished resuming.
        resume = account.telemetry.warehouse_events(wh, kind="resume")[0]
        assert all(r.start_time >= resume.time for r in records)


class TestClusterBoundReconciliation:
    def test_raising_min_clusters_starts_clusters(self):
        account, wh = make_account(
            min_clusters=1, max_clusters=3, auto_suspend_seconds=0.0
        )
        warehouse = account.warehouse(wh)
        drive(account, wh, make_requests(make_template("x", base_work_seconds=2.0), [5.0]), MINUTE)
        assert len(warehouse.active_clusters()) == 1
        warehouse.alter(min_clusters=3)
        assert len(warehouse.active_clusters()) == 3

    def test_lowering_max_clusters_retires_idle_ones(self):
        account, wh = make_account(
            min_clusters=3, max_clusters=3, auto_suspend_seconds=0.0
        )
        warehouse = account.warehouse(wh)
        drive(account, wh, make_requests(make_template("x", base_work_seconds=2.0), [5.0]), MINUTE)
        assert len(warehouse.active_clusters()) == 3
        warehouse.alter(min_clusters=1, max_clusters=1)
        assert len(warehouse.active_clusters()) == 1

    def test_lowering_max_below_busy_clusters_drains(self):
        account, wh = make_account(
            min_clusters=2, max_clusters=2, max_concurrency=1, auto_suspend_seconds=0.0
        )
        warehouse = account.warehouse(wh)
        template = make_template("long", base_work_seconds=120.0, n_partitions=0)
        drive(account, wh, make_requests(template, [5.0, 5.0]), 30.0)
        assert len(warehouse.active_clusters()) == 2
        assert warehouse.running_query_count == 2
        warehouse.alter(min_clusters=1, max_clusters=1)
        # Both clusters busy: one is marked draining, none killed mid-query.
        assert warehouse.running_query_count == 2
        assert len(warehouse.draining) == 1
        account.run_until(HOUR)
        assert len(warehouse.active_clusters()) == 1

    def test_billing_stops_for_retired_clusters(self):
        account, wh = make_account(
            min_clusters=2, max_clusters=2, auto_suspend_seconds=0.0
        )
        warehouse = account.warehouse(wh)
        drive(account, wh, make_requests(make_template("x", base_work_seconds=2.0), [5.0]), MINUTE)
        warehouse.alter(min_clusters=1, max_clusters=1)
        t0 = account.sim.now
        credits_at_change = warehouse.meter.total_credits(t0)
        account.run_until(t0 + HOUR)
        delta = warehouse.meter.total_credits(account.sim.now) - credits_at_change
        # Exactly one Small cluster for one hour.
        assert delta == pytest.approx(2.0, rel=0.05)


class TestShutdown:
    @staticmethod
    def _spy_ticks(warehouse) -> list[float]:
        """Record every policy tick the scheduler sees."""
        ticks: list[float] = []
        policy_tick = warehouse.scheduler.policy_tick

        def spy(now):
            ticks.append(now)
            policy_tick(now)

        warehouse.scheduler.policy_tick = spy
        return ticks

    def test_shutdown_stops_policy_controller(self):
        # One slot, two long queries: the second queues, so a tick is pending.
        account, wh = make_account(auto_suspend_seconds=0.0, max_concurrency=1)
        warehouse = account.warehouse(wh)
        template = make_template("x", base_work_seconds=300.0, n_partitions=0)
        drive(account, wh, make_requests(template, [5.0, 5.0]), MINUTE)
        assert warehouse.state == WarehouseState.RUNNING
        assert warehouse.queue_length == 1
        ticks = self._spy_ticks(warehouse)
        before = account.sim.pending_events
        warehouse.shutdown()
        assert account.sim.pending_events == before - 1
        account.run_until(2 * HOUR)
        assert ticks == []
        # Completions still drain the queue without the tick.
        assert len(account.telemetry.query_history(wh)) == 2

    def test_shutdown_survives_a_later_resume(self):
        account, wh = make_account(max_concurrency=1)
        warehouse = account.warehouse(wh)
        ticks = self._spy_ticks(warehouse)
        warehouse.shutdown()
        template = make_template("x", base_work_seconds=300.0, n_partitions=0)
        drive(account, wh, make_requests(template, [5.0, 5.0]), MINUTE)
        # The submit resumed the warehouse and left a queue, which would
        # re-arm a parked tick, but the tick stays stopped.
        assert warehouse.state == WarehouseState.RUNNING
        assert warehouse.queue_length == 1
        account.run_until(2 * HOUR)
        assert ticks == []
        assert account.sim.pending_events == 0


#: Fire times of a 30 s policy tick created at t=0.
GRID = [30.0 * k for k in range(100)]


class TestPolicyTickParking:
    def test_tick_parks_on_suspend_and_rearms_on_the_grid(self):
        # One slot and two ~57 s queries per burst: the second waits in the
        # queue, which is what the tick can act on.
        account, wh = make_account(auto_suspend_seconds=60.0, max_concurrency=1)
        warehouse = account.warehouse(wh)
        ticks = TestShutdown._spy_ticks(warehouse)
        template = make_template("x", base_work_seconds=100.0, n_partitions=0)
        account.schedule_workload(wh, make_requests(template, [5.0, 5.0, 1000.0, 1000.0]))
        account.run_until(900.0)
        assert warehouse.state == WarehouseState.SUSPENDED
        # Suspended: nothing of the warehouse's own is pending.
        assert account.sim.pending_events == 2  # the arrivals at t=1000
        account.run_until(1500.0)
        resume1, suspend1, resume2, suspend2 = (
            e.time
            for e in account.telemetry.warehouse_events(wh)
            if e.kind in ("resume", "suspend")
        )
        rows = account.telemetry.query_history(wh)
        drained = [rows[1].start_time, rows[3].start_time]
        assert resume1 < drained[0] < suspend1 < resume2 < drained[1] < suspend2
        # Ticks only on the 30 s grid from creation (t=0): from the first
        # grid time after each resume while the queue holds a query, plus
        # the one after it drains, which finds nothing to act on and parks.
        expected = []
        for resume, drain in zip((resume1, resume2), drained):
            expected += [t for t in GRID if resume < t < drain]
            expected.append(next(t for t in GRID if t > drain))
        assert ticks == expected

    def test_idle_running_warehouse_schedules_only_its_suspend_check(self):
        account, wh = make_account(auto_suspend_seconds=600.0)
        warehouse = account.warehouse(wh)
        drive(account, wh, make_requests(make_template("x", base_work_seconds=2.0), [5.0]), MINUTE)
        (row,) = account.telemetry.query_history(wh)
        assert warehouse.state == WarehouseState.RUNNING and warehouse.is_idle
        # From the last completion on, the one pending event is the check.
        assert account.sim.pending_events == 1
        scheduled = []
        schedule = account.sim.schedule

        def spy(time, callback, label=None):
            scheduled.append(time)
            return schedule(time, callback, label=label)

        account.sim.schedule = spy
        processed = account.sim.processed_events
        account.run_until(2 * HOUR)
        (suspend,) = account.telemetry.warehouse_events(wh, kind="suspend")
        assert suspend.time == 660.0 > row.end_time + 600.0
        assert scheduled == []
        assert account.sim.processed_events == processed + 1
