"""Per-second metering with Snowflake-style billing semantics.

Billing rules reproduced here (all load-bearing for the paper's cost model):

* each running **cluster** bills ``credits_per_hour(size)`` pro-rated per
  second while it runs;
* every cluster start incurs a **60-second minimum** charge — frequent
  suspend/resume cycles are therefore not free, which is why tuning the
  auto-suspend interval is a real optimization problem;
* usage is **rolled up hourly** into WAREHOUSE_METERING_HISTORY, the series
  the paper's Figures 4-6 plot.

The meter records one :class:`UsageSegment` per continuous cluster run at a
fixed size; a resize closes the segment and opens a new one at the new rate.

Reads cost what the window holds, not the run's history.  At close time a
segment's billed start, billed end and rate are appended to parallel
columns, beside a running maximum of the billed ends (sorted, so it can be
bisected even when a short fresh start's 60 s minimum reaches past a later
segment's end).  A window query bisects that maximum at ``window.start`` and
scans only from there: every segment it skips ends at or before the window,
so its overlap is exactly ``max(0.0, <= 0) == 0.0``, and adding ``+0.0`` to
a non-negative sum changes no bit.  Skipping keeps the summation order and
the result bit-identical to a full scan.  Open segments are valued at
``as_of`` on every read, as before.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.common.errors import WarehouseError
from repro.common.simtime import HOUR, Window, hour_index
from repro.obs import trace as obs
from repro.warehouse.types import WarehouseSize

#: Minimum billed seconds per cluster start.
MINIMUM_BILLED_SECONDS = 60.0


@dataclass
class UsageSegment:
    """A continuous billed run of one cluster at one size."""

    cluster_id: int
    size: WarehouseSize
    start: float
    end: float | None = None
    #: True for the first segment after a cluster (re)start; only such
    #: segments are subject to the 60 s minimum.
    fresh_start: bool = True

    def billed_window(self) -> Window:
        """The window of time actually charged for this segment."""
        if self.end is None:
            raise WarehouseError("segment is still open")
        return Window(self.start, _billed_end(self.start, self.end, self.fresh_start))

    def credits(self) -> float:
        return self.billed_window().duration / HOUR * self.size.credits_per_hour


def _billed_end(start: float, end: float, fresh_start: bool) -> float:
    """End of the billed window of a run from ``start`` to ``end``."""
    duration = end - start
    if fresh_start:
        duration = max(duration, MINIMUM_BILLED_SECONDS)
    return start + duration


class BillingMeter:
    """Accumulates usage segments for one warehouse."""

    def __init__(self, warehouse: str):
        self.warehouse = warehouse
        self._open: dict[int, UsageSegment] = {}
        # One entry per closed segment, in closing order.
        self._starts: list[float] = []  # billed start
        self._ends: list[float] = []  # billed end
        self._rates: list[float] = []  # credits per hour
        self._reach: list[float] = []  # running max of _ends: bisectable
        self._scanned = 0

    @property
    def segments_scanned(self) -> int:
        """Segments read so far: closed segments visited plus open ones valued."""
        return self._scanned

    def open_segment(
        self, cluster_id: int, t: float, size: WarehouseSize, fresh_start: bool = True
    ) -> None:
        """Begin billing ``cluster_id`` at ``size`` from time ``t``."""
        if cluster_id in self._open:
            raise WarehouseError(
                f"cluster {cluster_id} of {self.warehouse} already has an open segment"
            )
        self._open[cluster_id] = UsageSegment(cluster_id, size, t, fresh_start=fresh_start)

    def close_segment(self, cluster_id: int, t: float) -> UsageSegment:
        """Stop billing ``cluster_id`` at time ``t`` and archive the segment."""
        seg = self._open.pop(cluster_id, None)
        if seg is None:
            raise WarehouseError(f"cluster {cluster_id} of {self.warehouse} is not being billed")
        if t < seg.start:
            raise WarehouseError("cannot close a segment before it started")
        seg.end = t
        end = _billed_end(seg.start, t, seg.fresh_start)
        self._starts.append(seg.start)
        self._ends.append(end)
        self._rates.append(seg.size.credits_per_hour)
        self._reach.append(max(end, self._reach[-1]) if self._reach else end)
        rec = obs.recorder()
        if rec is not None:
            # Segment credits are final at close time (a resize closes and
            # reopens), so this series is the warehouse's spend over sim
            # time — what the spend-rate SLO burns against.
            rec.counter(f"repro.billing.{self.warehouse.lower()}.credits").inc(
                seg.credits(), time=t
            )
        return seg

    def reprice_segment(self, cluster_id: int, t: float, size: WarehouseSize) -> None:
        """Close and reopen a cluster's segment at a new rate (resize).

        The continuation segment is not a fresh start, so it does not incur
        another 60 s minimum.
        """
        self.close_segment(cluster_id, t)
        self.open_segment(cluster_id, t, size, fresh_start=False)

    def _segments(
        self, window: Window | None, as_of: float | None
    ) -> tuple[int, list[tuple[float, float, float]]]:
        """``(skipped, rows)``: the ``(billed start, billed end, rate)`` rows
        that can overlap ``window`` (all rows when ``window`` is None), closed
        ones in closing order, then open ones valued at ``as_of`` (default
        ``window.end``; none when both are None); ``skipped`` counts the
        closed rows passed over."""
        first = 0
        if window is not None:
            first = bisect_right(self._reach, window.start)
            if as_of is None:
                as_of = window.end
        rows = list(zip(self._starts[first:], self._ends[first:], self._rates[first:]))
        if as_of is not None:
            for seg in self._open.values():
                rows.append(
                    (
                        seg.start,
                        _billed_end(seg.start, max(as_of, seg.start), seg.fresh_start),
                        seg.size.credits_per_hour,
                    )
                )
        self._scanned += len(rows)
        return first, rows

    def total_credits(self, as_of: float | None = None) -> float:
        """Total credits billed so far (open segments valued at ``as_of``)."""
        _, rows = self._segments(None, as_of)
        return sum((end - start) / HOUR * rate for start, end, rate in rows)

    def credits_in_window(self, window: Window, as_of: float | None = None) -> float:
        """Credits attributable to ``window`` (minimum charges included at
        the start of their segment's billed window)."""
        _, rows = self._segments(window, as_of)
        lo, hi = window.start, window.end
        total = 0.0
        for start, end, rate in rows:
            total += max(0.0, min(end, hi) - max(start, lo)) / HOUR * rate
        return total

    def hourly_rollup(self, window: Window, as_of: float | None = None) -> dict[int, float]:
        """WAREHOUSE_METERING_HISTORY: credits per hour index inside ``window``."""
        rollup: dict[int, float] = {}
        _, rows = self._segments(window, as_of)
        for start, end, rate in rows:
            clipped_start = max(start, window.start)
            clipped_end = min(end, window.end)
            if clipped_end <= clipped_start:
                continue
            for piece in Window(clipped_start, clipped_end).split_hours():
                h = hour_index(piece.start)
                rollup[h] = rollup.get(h, 0.0) + piece.duration / HOUR * rate
        return rollup

    def active_cluster_seconds(self, window: Window, as_of: float | None = None) -> float:
        """Billed cluster-seconds overlapping ``window`` (for utilization KPIs)."""
        skipped, rows = self._segments(window, as_of)
        lo, hi = window.start, window.end
        # Each skipped segment added 0.0, which turns sum()'s int 0 into 0.0.
        return sum(
            (max(0.0, min(end, hi) - max(start, lo)) for start, end, _ in rows),
            0.0 if skipped else 0,
        )
