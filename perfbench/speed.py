"""Host-speed probe: corrects host times for the host's momentary speed.

On a shared VM the same deterministic run takes anywhere from 1x to 2.3x
its quiet-host time, in stretches of seconds to minutes, with no steal
time reported: the host's cores simply run slower while neighbours are
busy.  Timing the program alone cannot tell that slowdown from a
regression.

:class:`HostSpeed` times a fixed pure-Python kernel from a ``SIGALRM``
interval timer, every :data:`PERIOD_S` seconds, in the measured process
itself, so every stretch of the run has probes from the same moments.  A
host interval is corrected by the probes taken inside it::

    corrected = (raw - probe time) * REFERENCE_NS / mean(probe ns)

that is, the interval's host seconds at the speed where the kernel takes
:data:`REFERENCE_NS`.  The probes' own time is taken out.
"""

from __future__ import annotations

import gc
import signal
import time

#: Seconds between probes (~1% of the process's time goes to probing).
PERIOD_S = 0.025
#: The kernel's fastest time, in ns, on the host this was calibrated on.
REFERENCE_NS = 171_000
_KERNEL_LOOPS = 300


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def kernel() -> int:
    """The fixed work one probe times: interpreter-bound object creation,
    method calls, string formatting and dict stores, like the program's
    own.  The cyclic collector is held off, so its cost, which grows with
    the program's heap, stays out of the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        for i in range(_KERNEL_LOOPS):
            table["k%d" % (i % 50)] = _Point(i, 1.5).at(0.5)
    finally:
        if enabled:
            gc.enable()
    return len(table)


class HostSpeed:
    """Probes taken while armed; corrects host intervals with them."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        #: ``(start ns, kernel ns)`` per probe.
        self.probes: list[tuple[int, int]] = []

    def _probe(self, signum=None, frame=None) -> None:
        start = self._clock()
        kernel()
        self.probes.append((start, self._clock() - start))

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, start_ns: int, end_ns: int) -> list[int]:
        return [ns for at, ns in self.probes if start_ns <= at < end_ns]

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Host slowness in the interval: mean probe time over the
        reference (every probe if none fell inside)."""
        inside = self._inside(start_ns, end_ns) or [ns for _, ns in self.probes]
        return sum(inside) / len(inside) / REFERENCE_NS

    def probe_ns(self, start_ns: int, end_ns: int) -> int:
        """Host time the probes themselves took inside the interval."""
        return sum(self._inside(start_ns, end_ns))

    def corrected_s(self, start_ns: int, end_ns: int, raw_ns: int) -> float:
        """``raw_ns`` of program time inside the interval, probes taken out,
        in seconds at reference speed."""
        net = raw_ns - self.probe_ns(start_ns, end_ns)
        return net / self.factor(start_ns, end_ns) / 1e9
