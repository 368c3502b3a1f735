"""Discrete-event simulation core.

A tiny, dependency-free event loop: components schedule callbacks at future
timestamps; the simulation pops them in (time, insertion) order.  Periodic
*controllers* are first-class because the paper's Algorithm 1 is exactly a
periodic controller (fetch telemetry every ``T`` hours, act every
``T_realtime`` minutes) running against the warehouse.

Observability: the loop feeds ``repro.obs`` (dispatch counts, queue depth,
one span per controller fire) when an observation session is active; with
the default no-op recorder the loop is unchanged but for one global read
per ``run_until``.  When an event callback raises, the loop wraps the
failure in a :class:`SimulationError` carrying the event's scheduled time
and label (controller name) — previously that context was lost and a bad
controller tick surfaced as a naked exception with no idea of *when*.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence, TypeVar

from repro.common.errors import ReproError
from repro.common.simtime import format_time
from repro.obs import trace as obs

T = TypeVar("T")


class SimulationError(ReproError):
    """The event loop was driven incorrectly (e.g. scheduling in the past),
    or an event callback failed (the cause is chained, with the event's
    scheduled time and label in the message)."""


class Event:
    """One scheduled callback, and the handle :meth:`Simulation.schedule`
    returns for it.  The heap orders ``(time, seq, event)`` tuples; ``seq``
    is unique, so events themselves are never compared and the ordering
    runs as C tuple comparison."""

    __slots__ = ("_sim", "callback", "cancelled", "label", "popped", "time")

    def __init__(
        self, sim: "Simulation", time: float, callback: Callable[[], None], label: str | None
    ):
        self._sim = sim
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.label = label
        #: Set when the event leaves the heap, so a late ``cancel()`` (e.g. a
        #: controller stopping itself mid-dispatch) does not touch the pending
        #: counter for an event that is no longer pending.
        self.popped = False

    def cancel(self) -> None:
        """Drop the callback; the pending counter moves only for an event
        still in the heap."""
        if not self.cancelled and not self.popped:
            self._sim._pending -= 1
        self.cancelled = True


class _Feed:
    """A stream of pre-scheduled callbacks, :meth:`Simulation.feed`'s.

    ``items`` are in due order; item ``k`` is due at ``times[k]`` with seq
    ``base + k``, from the block of numbers the stream reserved when it was
    fed.  The heap holds only the stream's next item: when that entry pops,
    :meth:`callback` pushes the following one and delivers the item.  A
    slotted class rather than a closure: picklable when its items and
    ``deliver`` are, and free of closure-in-loop bugs.  It is never
    cancelled and carries no label; the run loops read both as they read
    an event's.
    """

    __slots__ = ("_base", "_deliver", "_heap", "_items", "_next", "_times", "popped")

    cancelled = False
    label = None

    def __init__(
        self,
        heap: list,
        times: list[float],
        items: list[T],
        deliver: Callable[[T], None],
        base: int,
    ):
        self._heap = heap
        self._times = times
        self._items = items
        self._deliver = deliver
        self._base = base
        self._next = 0
        self.popped = False

    def callback(self) -> None:
        """Deliver the item whose entry just popped; queue the next one first."""
        k = self._next
        following = self._next = k + 1
        if following < len(self._times):
            heapq.heappush(
                self._heap, (self._times[following], self._base + following, self)
            )
        self._deliver(self._items[k])


class Simulation:
    """The event loop.  ``now`` only moves forward.

    The heap holds ``(time, seq, event)`` entries: one per :class:`Event`,
    and one per :meth:`feed` stream.  ``seq`` comes from ``_seq``, an
    ``itertools.count`` whose repr reads the number of events ever
    scheduled (a fed stream reserves one number per item).
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Event | _Feed]] = []
        self._seq = itertools.count()
        self.processed_events = 0
        # Live count of schedulable (non-cancelled, not-yet-popped) events,
        # fed items included: one fed stream's heap entry stands for all of
        # its undelivered items.
        # Maintained incrementally so ``pending_events`` — read by the obs
        # queue-depth gauge after every run — is O(1), not an O(heap) scan.
        self._pending = 0

    def schedule(
        self, time: float, callback: Callable[[], None], label: str | None = None
    ) -> Event:
        """Schedule ``callback`` to run at ``time`` (>= now); the returned
        event cancels it.

        ``label`` names the event in failure context and traces (controllers
        pass their own name; plain events may leave it unset).
        """
        if time < self.now - 1e-9:
            raise SimulationError(f"cannot schedule at {time} before now={self.now}")
        time = max(time, self.now)
        event = Event(self, time, callback, label)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        self._pending += 1
        return event

    def feed(
        self, times: Sequence[float], items: Sequence[T], deliver: Callable[[T], None]
    ) -> None:
        """Schedule ``deliver(items[i])`` at ``times[i]`` for every ``i``.

        The dispatch order, ``repr(_seq)``, ``pending_events`` and
        ``processed_events`` are those of one :meth:`schedule` call per item
        in list order; ``times`` need not be sorted.  Every time is checked
        before anything is scheduled: one before ``now`` raises and
        schedules nothing.  Unlike :meth:`schedule`, the heap holds one
        entry for the whole stream, not one per item.

        The stream reserves a block of ``len(times)`` seq numbers and hands
        them out in due order (time, then list index).  No other entry's
        seq lies inside the block, so each tie with another entry breaks as
        it would for the per-item events, and within the stream due order
        is the per-item events' order too.
        """
        n = len(times)
        if not n:
            return
        earliest = min(times)
        if earliest < self.now - 1e-9:
            raise SimulationError(f"cannot schedule at {earliest} before now={self.now}")
        if earliest < self.now:
            times = [max(t, self.now) for t in times]
        # A stable sort: equal times stay in list order.
        order = sorted(range(n), key=times.__getitem__)
        times = [times[i] for i in order]
        items = [items[i] for i in order]
        base = next(self._seq)
        self._seq = itertools.count(base + n)
        self._pending += n
        stream = _Feed(self._heap, times, items, deliver, base)
        heapq.heappush(self._heap, (times[0], base, stream))

    def schedule_in(
        self, delay: float, callback: Callable[[], None], label: str | None = None
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, label=label)

    def add_controller(
        self,
        interval: float,
        callback: Callable[[float], None],
        start: float | None = None,
        name: str | None = None,
    ) -> "PeriodicController":
        """Run ``callback(now)`` every ``interval`` seconds from ``start``."""
        if interval <= 0:
            raise SimulationError("controller interval must be positive")
        controller = PeriodicController(self, interval, callback, name=name)
        controller.start(self.now if start is None else start)
        return controller

    def _event_failure(self, event: Event | _Feed, exc: Exception) -> SimulationError:
        """The :class:`SimulationError` for an event callback that raised:
        the event's time and label (controller name) in the message, the
        failure emitted to the active recorder."""
        where = f" in {event.label!r}" if event.label else ""
        obs.emit(
            "engine.event_error",
            self.now,
            label=event.label,
            error=type(exc).__name__,
        )
        return SimulationError(
            f"event scheduled at t={self.now:.3f} ({format_time(self.now)})"
            f"{where} raised {type(exc).__name__}: {exc}"
        )

    def run_until(self, end_time: float) -> None:
        """Process all events up to and including ``end_time``."""
        if end_time < self.now:
            raise SimulationError(f"end_time {end_time} precedes now {self.now}")
        before = self.processed_events
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= end_time:
            time, _, event = pop(heap)
            event.popped = True
            if event.cancelled:
                continue  # removed from the pending count at cancel time
            self._pending -= 1
            self.now = time
            try:
                event.callback()
            except Exception as exc:
                raise self._event_failure(event, exc) from exc
            self.processed_events += 1
        self.now = end_time
        self._record_progress(before)

    def run_all(self, hard_stop: float | None = None) -> None:
        """Drain the event queue (optionally up to ``hard_stop``)."""
        before = self.processed_events
        heap = self._heap
        while heap:
            time, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                head.popped = True
                continue
            if hard_stop is not None and time > hard_stop:
                break
            heapq.heappop(heap)
            head.popped = True
            self._pending -= 1
            self.now = time
            try:
                head.callback()
            except Exception as exc:
                raise self._event_failure(head, exc) from exc
            self.processed_events += 1
        if hard_stop is not None:
            self.now = max(self.now, hard_stop)
        self._record_progress(before)

    def _record_progress(self, processed_before: int) -> None:
        """Feed dispatch count and queue depth to the active recorder."""
        rec = obs.recorder()
        if rec is None:
            return
        dispatched = self.processed_events - processed_before
        if dispatched:
            rec.counter("repro.engine.events").inc(dispatched, time=self.now)
        rec.gauge("repro.engine.queue_depth").set(self.pending_events, time=self.now)

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled, not-yet-dispatched) event count, O(1),
        counting every undelivered item of a :meth:`feed` stream.

        ``_record_progress`` reads this after every ``run_until`` — with the
        old full-heap scan that made an observed run O(events²).  The
        counter is maintained at schedule/feed/cancel/pop time.  For
        programs that only :meth:`schedule`, it equals a scan of the heap's
        live entries (``tests/warehouse/test_engine.py::TestPendingCounter``);
        with a feed, one heap entry stands for many items, so the check is
        against one ``schedule`` per item instead
        (``tests/props/test_arrival_feed_props.py``).
        """
        return self._pending


class PeriodicController:
    """Re-schedules itself every ``interval`` until stopped.

    A controller can also be *parked*: it schedules nothing until
    :meth:`rearm`, which resumes it on its original grid — the same float
    fire times (each the previous one plus ``interval``) that a controller
    which never parked would produce.  A controller built directly, without
    :meth:`start`, is parked at the current time.
    """

    def __init__(
        self,
        sim: Simulation,
        interval: float,
        callback: Callable[[float], None],
        name: str | None = None,
    ):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        # The default name is derived from the callback, so failure context
        # and trace spans are labelled even for anonymous controllers.
        self.name = name or getattr(
            callback, "__qualname__", type(callback).__name__
        )
        self._handle: Event | None = None
        #: The pending fire's time, or the grid slot a parked controller
        #: last held (fired or cancelled).
        self._next_fire = sim.now
        self._stopped = False

    def start(self, first_fire: float) -> None:
        self._handle = self.sim.schedule(first_fire, self._fire, label=self.name)
        self._next_fire = self._handle.time

    def _fire(self) -> None:
        fired = self._handle
        rec = obs.recorder()
        if rec is None:
            self.callback(self.sim.now)
        else:
            rec.counter("repro.engine.controller_fires").inc(time=self.sim.now)
            with rec.span("engine.controller.fire", self.sim.now, controller=self.name):
                self.callback(self.sim.now)
        # Parked, stopped or re-armed by the callback: schedule nothing here.
        if self._handle is fired:
            self.start(self.sim.now + self.interval)

    def park(self) -> None:
        """Stop firing, keeping the grid for :meth:`rearm`."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def rearm(self, after: float) -> None:
        """Resume a parked controller at its first grid time strictly after
        ``after``.  A running or stopped controller is left as it is."""
        if self._handle is not None or self._stopped:
            return
        fire = self._next_fire
        while fire <= after:
            fire += self.interval
        self.start(fire)

    def stop(self) -> None:
        """Stop for good: a later :meth:`rearm` does nothing."""
        self._stopped = True
        self.park()
