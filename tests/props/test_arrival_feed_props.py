"""A fed stream runs exactly as one scheduled event per item.

``Simulation.feed`` keeps one heap entry per stream and reserves the
stream's seq numbers up front.  The oracle is the loop it replaced: one
``Simulation.schedule`` call per item, in list order.  Random programs mix
sorted and unsorted streams (with equal-time ties) with ordinary events,
cancels and partial runs; some dispatched callbacks schedule a follow-up
event, at a delay that can tie with a pending item.  After every dispatched
event both simulations must agree on what ran, ``now``, ``repr(sim._seq)``,
``processed_events`` and ``pending_events``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.warehouse.engine import Simulation

#: Small integral offsets, so streams, events and follow-ups tie often.
offsets = st.integers(min_value=0, max_value=6).map(float)
#: ``None``: the callback schedules nothing; else a follow-up this far out.
follow_ups = st.one_of(st.none(), offsets)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("event"), offsets, follow_ups),
        st.tuples(
            st.just("stream"),
            st.lists(st.tuples(offsets, follow_ups), min_size=0, max_size=8),
            st.booleans(),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("run"), offsets),
    ),
    min_size=1,
    max_size=25,
)


class _Run:
    """Runs one program on one simulation, logging the state at each dispatch."""

    def __init__(self, eager: bool):
        self.sim = Simulation(start_time=10.0)
        self.eager = eager
        self.log: list[tuple] = []
        self.handles = []

    def _state(self, name: str) -> tuple:
        sim = self.sim
        return (name, sim.now, repr(sim._seq), sim.processed_events, sim.pending_events)

    def _fire(self, name: str, follow_up: float | None) -> None:
        self.log.append(self._state(name))
        if follow_up is not None:
            self.handles.append(
                self.sim.schedule(self.sim.now + follow_up, lambda: self._fire(name + "+", None))
            )

    def apply(self, op: tuple, index: int) -> None:
        sim = self.sim
        kind = op[0]
        if kind == "event":
            _, offset, follow_up = op
            name = f"e{index}"
            self.handles.append(
                sim.schedule(sim.now + offset, lambda: self._fire(name, follow_up))
            )
        elif kind == "stream":
            _, items, keep_sorted = op
            if keep_sorted:
                items = sorted(items, key=lambda item: item[0])
            times = [sim.now + offset for offset, _ in items]
            payload = [(f"s{index}.{i}", follow_up) for i, (_, follow_up) in enumerate(items)]
            if self.eager:
                for time, item in zip(times, payload):
                    sim.schedule(time, lambda item=item: self._fire(*item))
            else:
                sim.feed(times, payload, lambda item: self._fire(*item))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        else:
            sim.run_until(sim.now + op[1])
        self.log.append(self._state(f"after {kind}"))


class TestFeedMatchesPerItemSchedule:
    @given(ops)
    @settings(max_examples=300, deadline=None)
    @example([("stream", [(3.0, None), (1.0, 0.0), (1.0, None), (0.0, 1.0)], False),
              ("event", 1.0, None), ("run", 6.0)])
    @example([("event", 2.0, None), ("stream", [(2.0, 0.0), (2.0, None)], True),
              ("cancel", 0), ("run", 1.0), ("stream", [], True), ("run", 6.0)])
    def test_same_dispatch_order_and_counters(self, program):
        fed, eager = _Run(eager=False), _Run(eager=True)
        for index, op in enumerate(program):
            fed.apply(op, index)
            eager.apply(op, index)
            assert fed.log == eager.log
        fed.sim.run_all()
        eager.sim.run_all()
        assert fed.log == eager.log
        assert repr(fed.sim._seq) == repr(eager.sim._seq)
        assert fed.sim.pending_events == eager.sim.pending_events == 0

    @given(st.lists(st.tuples(offsets, follow_ups), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_heap_holds_one_entry_per_stream(self, items):
        sim = Simulation()
        sim.feed([offset for offset, _ in items], items, lambda item: None)
        assert len(sim._heap) == 1
        assert sim.pending_events == len(items)
        sim.run_all()
        assert sim.processed_events == len(items)
        assert not sim._heap
