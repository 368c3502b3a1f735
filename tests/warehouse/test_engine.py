"""Tests for the discrete-event engine."""

import heapq

import pytest

from repro.common.simtime import DAY
from repro.experiments.scenarios import fig5_scenarios
from repro.warehouse.engine import Simulation, SimulationError
from tests.conftest import make_account, make_requests, make_template


class TestSimulation:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(20.0, lambda: fired.append("b"))
        sim.schedule(10.0, lambda: fired.append("a"))
        sim.run_until(30.0)
        assert fired == ["a", "b"]

    def test_ties_fire_in_insertion_order(self):
        # Heap entries are (time, seq, event) tuples: seq breaks every tie,
        # so events (whose callbacks do not compare) are never compared.
        for drain in ("run_until", "run_all"):
            sim = Simulation()
            fired = []
            for i in range(30):
                sim.schedule(float(i % 3) * 10.0, lambda i=i: fired.append(i))
            if drain == "run_until":
                sim.run_until(20.0)
            else:
                sim.run_all()
            assert fired == sorted(range(30), key=lambda i: i % 3)

    def test_seq_counter_repr_counts_scheduled_events(self):
        # perfbench/harness.py reads the number of events ever scheduled
        # from ``repr(sim._seq)``; cancelled and dispatched ones count.
        sim = Simulation()
        assert repr(sim._seq) == "count(0)"
        handle = sim.schedule(5.0, lambda: None)
        sim.schedule_in(1.0, lambda: None)
        handle.cancel()
        sim.add_controller(10.0, lambda now: None)
        sim.run_until(25.0)
        # 2 plain events + controller fires scheduled at 0, 10, 20, 30.
        assert repr(sim._seq) == "count(6)"
        assert sim.processed_events == 4

    def test_now_advances_to_end_time(self):
        sim = Simulation()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_scheduling_in_past_rejected(self):
        sim = Simulation(start_time=100.0)
        with pytest.raises(SimulationError):
            sim.schedule(50.0, lambda: None)

    def test_run_until_backwards_rejected(self):
        sim = Simulation(start_time=100.0)
        with pytest.raises(SimulationError):
            sim.run_until(50.0)

    def test_schedule_in_delay(self):
        sim = Simulation(start_time=10.0)
        times = []
        sim.schedule_in(5.0, lambda: times.append(sim.now))
        sim.run_until(20.0)
        assert times == [15.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule_in(-1.0, lambda: None)

    def test_cancellation(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(10.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run_until(20.0)
        assert fired == []
        assert handle.cancelled

    def test_events_can_schedule_events(self):
        sim = Simulation()
        fired = []

        def first():
            sim.schedule_in(5.0, lambda: fired.append(sim.now))

        sim.schedule(10.0, first)
        sim.run_until(20.0)
        assert fired == [15.0]

    def test_events_beyond_horizon_stay_pending(self):
        sim = Simulation()
        fired = []
        sim.schedule(100.0, lambda: fired.append("late"))
        sim.run_until(50.0)
        assert fired == []
        assert sim.pending_events == 1
        sim.run_until(150.0)
        assert fired == ["late"]

    def test_run_all_drains(self):
        sim = Simulation()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.schedule(30.0, lambda: fired.append(2))
        sim.run_all()
        assert fired == [1, 2]
        assert sim.now == 30.0

    def test_run_all_with_hard_stop(self):
        sim = Simulation()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.schedule(30.0, lambda: fired.append(2))
        sim.run_all(hard_stop=20.0)
        assert fired == [1]
        assert sim.now == 20.0

    def test_processed_event_count(self):
        sim = Simulation()
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        sim.run_until(10.0)
        assert sim.processed_events == 5


class TestPeriodicController:
    def test_fires_every_interval(self):
        sim = Simulation()
        ticks = []
        sim.add_controller(10.0, ticks.append)
        sim.run_until(35.0)
        assert ticks == [0.0, 10.0, 20.0, 30.0]

    def test_custom_start(self):
        sim = Simulation()
        ticks = []
        sim.add_controller(10.0, ticks.append, start=5.0)
        sim.run_until(30.0)
        assert ticks == [5.0, 15.0, 25.0]

    def test_stop_halts_future_fires(self):
        sim = Simulation()
        ticks = []
        controller = sim.add_controller(10.0, ticks.append)
        sim.run_until(15.0)
        controller.stop()
        sim.run_until(100.0)
        assert ticks == [0.0, 10.0]

    def test_park_then_rearm_keeps_the_grid(self):
        sim = Simulation(start_time=0.1)
        ticks = []
        controller = sim.add_controller(10.0, ticks.append)
        sim.run_until(25.0)
        controller.park()
        sim.run_until(60.0)
        controller.rearm(60.0)
        sim.run_until(85.0)
        # Re-armed strictly after 60.0 on the grid built by repeated
        # addition from 0.1 — no tick at the parked slots in between.
        grid = [0.1]
        while grid[-1] + 10.0 <= 85.0:
            grid.append(grid[-1] + 10.0)
        assert ticks == [t for t in grid if t <= 25.0 or t > 60.0]

    def test_rearm_is_strict_and_idempotent(self):
        sim = Simulation()
        ticks = []
        controller = sim.add_controller(10.0, ticks.append)
        controller.park()
        sim.run_until(20.0)
        controller.rearm(20.0)
        controller.rearm(20.0)  # already armed: no second schedule
        sim.run_until(40.0)
        assert ticks == [30.0, 40.0]

    def test_controller_parking_itself_mid_fire(self):
        sim = Simulation()
        ticks = []
        controller = None

        def tick(now):
            ticks.append(now)
            if now == 20.0:
                controller.park()

        controller = sim.add_controller(10.0, tick)
        sim.run_until(50.0)
        assert ticks == [0.0, 10.0, 20.0]
        assert sim.pending_events == 0
        controller.rearm(sim.now)
        sim.run_until(70.0)
        assert ticks == [0.0, 10.0, 20.0, 60.0, 70.0]

    def test_stopped_controller_ignores_rearm(self):
        sim = Simulation()
        ticks = []
        controller = sim.add_controller(10.0, ticks.append)
        controller.stop()
        controller.rearm(5.0)
        sim.run_until(50.0)
        assert ticks == []

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().add_controller(0.0, lambda t: None)


class TestFailureContext:
    """A failing event must surface *when* it was scheduled and *who*
    scheduled it (regression: SimulationError used to re-raise bare)."""

    def test_event_error_carries_scheduled_time_and_cause(self):
        sim = Simulation()

        def explode():
            raise ValueError("boom")

        sim.schedule(125.0, explode, label="telemetry-flush")
        with pytest.raises(SimulationError) as excinfo:
            sim.run_until(200.0)
        message = str(excinfo.value)
        assert "t=125.000" in message
        assert "'telemetry-flush'" in message
        assert "ValueError" in message
        assert "boom" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unlabelled_event_still_reports_time(self):
        sim = Simulation()
        sim.schedule(10.0, lambda: 1 / 0)
        with pytest.raises(SimulationError) as excinfo:
            sim.run_all()
        assert "t=10.000" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_controller_failure_names_the_controller(self):
        sim = Simulation()

        def tick(now):
            if now >= 20.0:
                raise RuntimeError("tick failed")

        sim.add_controller(10.0, tick, name="optimizer[BI_WH]")
        with pytest.raises(SimulationError) as excinfo:
            sim.run_until(100.0)
        message = str(excinfo.value)
        assert "'optimizer[BI_WH]'" in message
        assert "t=20.000" in message
        assert sim.now == 20.0  # stopped at the failing instant

    def test_simulation_error_passes_through_unwrapped(self):
        sim = Simulation()

        def bad(now):
            sim.add_controller(-1.0, lambda t: None)

        sim.add_controller(10.0, bad, name="meta")
        with pytest.raises(SimulationError) as excinfo:
            sim.run_until(10.0)
        # Wrapped exactly once: the inner SimulationError is the cause, not
        # a SimulationError-in-SimulationError-in-... chain.
        assert isinstance(excinfo.value.__cause__, SimulationError)
        assert excinfo.value.__cause__.__cause__ is None


class TestPendingCounter:
    """`pending_events` is a live counter now, not a heap scan — these lock
    the counter to the ground truth under every schedule/cancel/pop path."""

    @staticmethod
    def _scan(sim):
        """The old O(heap) definition: ground truth for the counter."""
        return sum(1 for e in sim._heap if not e[2].cancelled)

    def test_schedule_and_run_keep_counter_exact(self):
        sim = Simulation()
        for t in range(10):
            sim.schedule(float(t), lambda: None)
        assert sim.pending_events == self._scan(sim) == 10
        sim.run_until(4.0)
        assert sim.pending_events == self._scan(sim) == 5
        sim.run_all()
        assert sim.pending_events == self._scan(sim) == 0

    def test_cancel_decrements_once(self):
        sim = Simulation()
        handle = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == self._scan(sim) == 1
        handle.cancel()  # double-cancel must not decrement again
        assert sim.pending_events == self._scan(sim) == 1
        sim.run_all()
        assert sim.pending_events == self._scan(sim) == 0

    def test_cancel_after_dispatch_is_a_noop(self):
        # A callback cancelling its *own* handle (a controller stopping
        # itself mid-dispatch) touches an event that already left the heap.
        sim = Simulation()
        handles = []

        def self_cancel():
            handles[0].cancel()

        handles.append(sim.schedule(10.0, self_cancel))
        sim.schedule(20.0, lambda: None)
        sim.run_until(15.0)
        assert sim.pending_events == self._scan(sim) == 1
        sim.run_all()
        assert sim.pending_events == self._scan(sim) == 0

    def test_cancelled_events_skipped_by_run_all(self):
        sim = Simulation()
        keep = []
        first = sim.schedule(10.0, lambda: keep.append("a"))
        sim.schedule(30.0, lambda: keep.append("b"))
        first.cancel()
        sim.run_all(hard_stop=20.0)  # pops the cancelled head lazily
        assert keep == []
        assert sim.pending_events == self._scan(sim) == 1
        sim.run_all()
        assert keep == ["b"]
        assert sim.pending_events == self._scan(sim) == 0

    def test_random_interleaving_matches_scan(self):
        from repro.common.rng import RngRegistry

        rng = RngRegistry(seed=20260806).stream("test.pending")
        sim = Simulation()
        live = []
        for step in range(300):
            choice = rng.random()
            if choice < 0.5:
                live.append(sim.schedule(sim.now + float(rng.integers(1, 50)), lambda: None))
            elif choice < 0.75 and live:
                live.pop(int(rng.integers(0, len(live)))).cancel()
            else:
                sim.run_until(sim.now + float(rng.integers(0, 25)))
            assert sim.pending_events == self._scan(sim)
        sim.run_all()
        assert sim.pending_events == self._scan(sim) == 0


class TestArrivalFeed:
    """``Simulation.feed`` and ``Account.schedule_workload`` on top of it."""

    def test_unsorted_stream_runs_in_time_then_list_order(self):
        sim = Simulation()
        fired = []
        sim.feed([30.0, 10.0, 20.0, 10.0], ["a", "b", "c", "d"], fired.append)
        sim.run_all()
        assert fired == ["b", "d", "c", "a"]
        assert repr(sim._seq) == "count(4)"
        assert sim.processed_events == 4

    def test_time_within_tolerance_before_now_runs_at_now(self):
        sim = Simulation(start_time=100.0)
        seen = []
        sim.feed([100.0 - 1e-10, 100.5], ["a", "b"], lambda item: seen.append((item, sim.now)))
        sim.run_all()
        assert seen == [("a", 100.0), ("b", 100.5)]

    def test_arrival_failure_names_its_time(self):
        sim = Simulation()

        def deliver(item):
            raise ValueError(item)

        sim.feed([5.0, 7.0], ["first", "second"], deliver)
        with pytest.raises(SimulationError, match=r"t=5\.000 .* raised ValueError: first"):
            sim.run_all()

    def test_arrival_before_now_raises_and_schedules_nothing(self):
        account, wh = make_account()
        account.run_until(100.0)
        sim = account.sim
        before = (repr(sim._seq), sim.pending_events, list(sim._heap))
        late_then_early = make_requests(make_template("x"), [150.0, 200.0, 50.0])
        with pytest.raises(SimulationError, match="before now=100"):
            account.schedule_workload(wh, late_then_early)
        assert (repr(sim._seq), sim.pending_events, list(sim._heap)) == before
        account.run_until(300.0)
        assert account.telemetry.query_history(wh) == []

    def test_heap_does_not_grow_with_run_length(self, monkeypatch):
        """On a Figure 5 warehouse (BI dashboards), the longest the heap
        gets over two simulated days is at most 1.25x its longest over one
        day; with one heap entry per pre-scheduled arrival it was 2.2x."""
        longest = [0]
        push = heapq.heappush

        def measured_push(heap, item):
            push(heap, item)
            longest[0] = max(longest[0], len(heap))

        monkeypatch.setattr(heapq, "heappush", measured_push)

        def longest_heap(days: int) -> int:
            scenario = fig5_scenarios()[3]
            scenario.total_days = days
            longest[0] = 0
            scenario.schedule()
            scenario.account.run_until(days * DAY)
            return longest[0]

        one_day, two_days = longest_heap(1), longest_heap(2)
        assert one_day > 0
        assert two_days <= 1.25 * one_day
