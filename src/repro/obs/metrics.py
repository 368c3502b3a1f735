"""Deterministic in-process metrics: Counter, Gauge, Histogram, registry.

Metrics follow the naming convention ``repro.<subsystem>.<name>`` (see
docs/OBSERVABILITY.md).  Everything here is plain Python state keyed by
name, and the snapshot/export is stable-sorted, so two runs of the same
scenario with the same seed produce byte-identical exports — the same
determinism contract the trace layer honours.

A parallel family of null metrics backs the disabled state: call sites can
unconditionally do ``obs.counter("repro.x.y").inc()`` and pay only an
attribute lookup and a no-op call when observation is off.
"""

from __future__ import annotations

import bisect
import math
import re

from repro.common.errors import ObservabilityError
from repro.common.stable_json import canonical_json


#: Metric names: dotted lowercase segments, e.g. ``repro.engine.events``.
#: Per-entity suffixes (warehouse names) are lowercased by callers.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Default histogram buckets: upper bounds in seconds, spanning sub-second
#: queries to multi-hour windows.  An implicit +inf bucket catches the rest.
DEFAULT_BUCKETS = (0.1, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 3600.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"invalid metric name {name!r}: use dotted lowercase segments "
            "like 'repro.engine.events' (docs/OBSERVABILITY.md)"
        )
    return name


class Counter:
    """A monotonically increasing count (events dispatched, decisions...).

    Pass ``time=<sim time>`` to also fold the increment into the recorder's
    bucketed :mod:`repro.obs.series` history (no-op when no series registry
    is attached, e.g. on a bare ``MetricsRegistry()``).
    """

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.series = None  # attached by MetricsRegistry when it has one

    def inc(self, amount: float = 1.0, time: float | None = None) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        if self.series is not None and time is not None:
            self.series.record(time, amount)

    def snapshot(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time level (queue depth, latency ratio...).

    Tracks the extremes seen across updates alongside the last value — the
    SLO engine gates on worst-case levels, and "what was the peak queue
    depth?" is useful even without a series.
    """

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.updates = 0
        self.min = 0.0
        self.max = 0.0
        self.series = None

    def set(self, value: float, time: float | None = None) -> None:
        value = float(value)
        self.value = value
        if self.updates == 0:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.updates += 1
        if self.series is not None and time is not None:
            self.series.record(time, value)

    def snapshot(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "value": self.value,
            "updates": self.updates,
            "min": self.min,
            "max": self.max,
        }


class Histogram:
    """A distribution over fixed, strictly increasing bucket boundaries.

    Buckets use Prometheus ``le`` semantics: an observation lands in the
    first bucket whose upper bound is **>= value**; values above the last
    boundary land in the implicit +inf bucket.  Boundary values are
    inclusive (``observe(1.0)`` with a ``1.0`` bound counts in that bucket).
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be non-empty and strictly increasing"
            )
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be finite (+inf bucket is implicit)"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.total = 0.0
        self.count = 0
        self.series = None

    def observe(self, value: float, time: float | None = None) -> None:
        value = float(value)
        if math.isnan(value):
            raise ObservabilityError(f"histogram {self.name!r} cannot observe NaN")
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if self.series is not None and time is not None:
            self.series.record(time, value)

    def snapshot(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create store of named metrics with a stable-sorted export.

    When constructed with a :class:`repro.obs.series.SeriesRegistry`, every
    metric created here gets a same-named bucketed series attached, and
    time-stamped updates (``inc``/``set``/``observe`` with ``time=``) are
    folded into it.
    """

    def __init__(self, series=None):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._series = series

    def _get(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory(_check_name(name))
            if self._series is not None:
                metric.series = self._series.series(name, kind)
        elif metric.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {metric.kind}, requested as a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, "gauge")

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._get(name, lambda n: Histogram(n, buckets), "histogram")
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ObservabilityError(
                f"histogram {name!r} already exists with buckets {metric.bounds}, "
                f"requested with {tuple(buckets)}"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Name-sorted plain-dict view of every metric's current state."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def to_json(self) -> str:
        """Byte-stable JSON export (sorted keys, compact separators)."""
        return canonical_json(self.snapshot()) + "\n"

    def merge(self, snapshot: dict[str, dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Sequential-composition semantics (the parallel experiment layer's
        merge rule, docs/PERFORMANCE.md): the result equals a registry that
        recorded everything already here followed by everything the snapshot
        summarizes — counters accumulate, gauges take the snapshot's last
        value and widen their extremes, histograms add bucket counts.
        Series are *not* touched: the bucketed history merges separately
        through :meth:`repro.obs.series.SeriesRegistry.merge`.
        """
        for name in sorted(snapshot):
            snap = snapshot[name]
            kind = snap["kind"]
            if kind == "counter":
                self.counter(name).value += float(snap["value"])
            elif kind == "gauge":
                gauge = self.gauge(name)
                updates = int(snap["updates"])
                if updates == 0:
                    continue
                if gauge.updates == 0:
                    gauge.min = float(snap["min"])
                    gauge.max = float(snap["max"])
                else:
                    gauge.min = min(gauge.min, float(snap["min"]))
                    gauge.max = max(gauge.max, float(snap["max"]))
                gauge.value = float(snap["value"])
                gauge.updates += updates
            elif kind == "histogram":
                hist = self.histogram(name, tuple(snap["buckets"]))
                if len(snap["counts"]) != len(hist.counts):
                    raise ObservabilityError(
                        f"histogram {name!r} merge: bucket count mismatch"
                    )
                for i, count in enumerate(snap["counts"]):
                    hist.counts[i] += int(count)
                hist.total += float(snap["sum"])
                hist.count += int(snap["count"])
            else:
                raise ObservabilityError(
                    f"cannot merge metric {name!r}: unknown kind {kind!r}"
                )


class _NullCounter:
    """No-op counter returned while observation is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, time: float | None = None) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float, time: float | None = None) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float, time: float | None = None) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
