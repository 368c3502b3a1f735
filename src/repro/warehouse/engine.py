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
from typing import Callable

from repro.common.errors import ReproError
from repro.common.simtime import format_time
from repro.obs import trace as obs


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


class Simulation:
    """The event loop.  ``now`` only moves forward."""

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.processed_events = 0
        # Live count of schedulable (non-cancelled, not-yet-popped) events.
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

    def _dispatch(self, event: Event) -> None:
        """Run one event's callback, wrapping failures with when/what context."""
        try:
            event.callback()
        except Exception as exc:
            where = f" in {event.label!r}" if event.label else ""
            obs.emit(
                "engine.event_error",
                self.now,
                label=event.label,
                error=type(exc).__name__,
            )
            raise SimulationError(
                f"event scheduled at t={event.time:.3f} ({format_time(event.time)})"
                f"{where} raised {type(exc).__name__}: {exc}"
            ) from exc

    def run_until(self, end_time: float) -> None:
        """Process all events up to and including ``end_time``."""
        if end_time < self.now:
            raise SimulationError(f"end_time {end_time} precedes now {self.now}")
        before = self.processed_events
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            event = heapq.heappop(heap)[2]
            event.popped = True
            if event.cancelled:
                continue  # removed from the pending count at cancel time
            self._pending -= 1
            self.now = event.time
            self._dispatch(event)
            self.processed_events += 1
        self.now = end_time
        self._record_progress(before)

    def run_all(self, hard_stop: float | None = None) -> None:
        """Drain the event queue (optionally up to ``hard_stop``)."""
        before = self.processed_events
        heap = self._heap
        while heap:
            head = heap[0][2]
            if head.cancelled:
                heapq.heappop(heap)
                head.popped = True
                continue
            if hard_stop is not None and head.time > hard_stop:
                break
            heapq.heappop(heap)
            head.popped = True
            self._pending -= 1
            self.now = head.time
            self._dispatch(head)
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
        """Live (non-cancelled, not-yet-dispatched) event count, O(1).

        ``_record_progress`` reads this after every ``run_until`` — with the
        old full-heap scan that made an observed run O(events²).  The
        counter is maintained at schedule/cancel/pop time; the invariant is
        locked by ``tests/warehouse/test_engine.py::TestPendingCounter``.
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
