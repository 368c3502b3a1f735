"""Sim-time metric series: fixed-width bucketed history for any metric.

PR 2's metrics registry answers "what was the final value?"; this module
answers "when did it change?".  Every recording carries an explicit
simulation timestamp (never a clock — lint rule R001) and lands in a
fixed-width bucket (default 300 s of sim time).  Each bucket keeps the
same small aggregate regardless of metric kind — ``last``, ``min``,
``max``, ``sum``, ``count`` — which is enough to reconstruct per-bucket
rates for counters, levels for gauges and distribution summaries for
histograms without storing raw samples.

Determinism contract (docs/OBSERVABILITY.md): bucket indices are a pure
function of the timestamps, aggregates fold in emission order, and
exports are sorted-key compact JSON — two runs of the same ``(scenario,
seed)`` produce byte-identical series files
(``tests/props/test_obs_series_determinism.py``).

The disabled path costs nothing extra: call sites write through the
module-level metric API (``obs.counter(...).inc(n, time=now)``), which
hands out shared no-op singletons while observation is off.
"""

from __future__ import annotations

import math

from repro.common.stable_json import canonical_json
from repro.obs.metrics import ObservabilityError, _check_name

#: Default sim-time bucket width, in seconds.
DEFAULT_BUCKET_SECONDS = 300.0

#: Reductions of one bucket's aggregate to a single scalar (used by the
#: SLO engine and the CLI).  ``rate`` is per-second: bucket sum / width.
AGGREGATES = ("last", "min", "max", "mean", "sum", "count", "rate")


class _Bucket:
    """One fixed-width window's fold of every value recorded inside it."""

    __slots__ = ("last", "min", "max", "sum", "count")

    def __init__(self, value: float):
        self.last = value
        self.min = value
        self.max = value
        self.sum = value
        self.count = 1

    def fold(self, value: float) -> None:
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.sum += value
        self.count += 1

    def as_list(self) -> list[float]:
        return [self.last, self.min, self.max, self.sum, self.count]


class MetricSeries:
    """The bucketed sim-time history of one named metric."""

    __slots__ = ("name", "kind", "bucket_seconds", "_buckets")

    def __init__(self, name: str, kind: str, bucket_seconds: float = DEFAULT_BUCKET_SECONDS):
        if bucket_seconds <= 0 or math.isnan(bucket_seconds) or math.isinf(bucket_seconds):
            raise ObservabilityError(
                f"series {name!r} bucket width must be a positive finite number"
            )
        self.name = name
        self.kind = kind
        self.bucket_seconds = float(bucket_seconds)
        self._buckets: dict[int, _Bucket] = {}

    def record(self, time: float, value: float) -> None:
        """Fold ``value`` into the bucket covering sim time ``time``.

        For counters the value is the *increment* (bucket ``sum`` is the
        per-bucket total); for gauges/histograms it is the observed level.
        """
        time, value = float(time), float(value)
        if math.isnan(time) or math.isnan(value):
            raise ObservabilityError(f"series {self.name!r} cannot record NaN")
        index = int(time // self.bucket_seconds)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = _Bucket(value)
        else:
            bucket.fold(value)

    def __len__(self) -> int:
        return len(self._buckets)

    def bucket_start(self, index: int) -> float:
        return index * self.bucket_seconds

    def bucket_end(self, index: int) -> float:
        return (index + 1) * self.bucket_seconds

    def points(self, aggregate: str = "last") -> list[tuple[int, float]]:
        """``(bucket_index, scalar)`` pairs, index-sorted, for one reduction."""
        if aggregate not in AGGREGATES:
            raise ObservabilityError(
                f"unknown series aggregate {aggregate!r}; one of {AGGREGATES}"
            )
        out = []
        for index in sorted(self._buckets):
            bucket = self._buckets[index]
            if aggregate == "mean":
                value = bucket.sum / bucket.count
            elif aggregate == "rate":
                value = bucket.sum / self.bucket_seconds
            elif aggregate == "count":
                value = float(bucket.count)
            else:
                value = getattr(bucket, aggregate)
            out.append((index, value))
        return out

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view: ``buckets`` rows are
        ``[index, last, min, max, sum, count]``, index-sorted."""
        return {
            "kind": self.kind,
            "bucket_seconds": self.bucket_seconds,
            "buckets": [
                [index] + self._buckets[index].as_list()
                for index in sorted(self._buckets)
            ],
        }

    def merge_snapshot(self, payload: dict[str, object]) -> None:
        """Fold another series' :meth:`snapshot` into this one, *after* every
        value already recorded here.

        This is the sequential-composition rule the parallel experiment
        layer relies on (docs/PERFORMANCE.md): merging snapshot B into the
        series that produced snapshot A yields exactly the series of a run
        that recorded all of A's values and then all of B's — ``last`` takes
        B's, extremes widen, ``sum``/``count`` accumulate per bucket.
        """
        width = float(payload["bucket_seconds"])
        if width != self.bucket_seconds:
            raise ObservabilityError(
                f"cannot merge series {self.name!r}: bucket width {width} "
                f"differs from {self.bucket_seconds}"
            )
        for index, last, mn, mx, total, count in payload["buckets"]:
            bucket = self._buckets.get(int(index))
            if bucket is None:
                bucket = self._buckets[int(index)] = _Bucket(float(last))
                bucket.min = float(mn)
                bucket.max = float(mx)
                bucket.sum = float(total)
                bucket.count = int(count)
            else:
                bucket.last = float(last)
                if float(mn) < bucket.min:
                    bucket.min = float(mn)
                if float(mx) > bucket.max:
                    bucket.max = float(mx)
                bucket.sum += float(total)
                bucket.count += int(count)


class SeriesRegistry:
    """Get-or-create store of metric series with a byte-stable export."""

    def __init__(self, bucket_seconds: float = DEFAULT_BUCKET_SECONDS):
        if bucket_seconds <= 0:
            raise ObservabilityError("series bucket width must be positive")
        self.bucket_seconds = float(bucket_seconds)
        self._series: dict[str, MetricSeries] = {}

    def series(self, name: str, kind: str) -> MetricSeries:
        existing = self._series.get(name)
        if existing is None:
            existing = self._series[name] = MetricSeries(
                _check_name(name), kind, self.bucket_seconds
            )
        elif existing.kind != kind:
            raise ObservabilityError(
                f"series {name!r} is a {existing.kind}, requested as a {kind}"
            )
        return existing

    def get(self, name: str) -> MetricSeries | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Name-sorted view of every non-empty series."""
        return {
            name: self._series[name].snapshot()
            for name in sorted(self._series)
            if len(self._series[name])
        }

    def to_json(self) -> str:
        """Byte-stable JSON export (sorted keys, compact separators)."""
        return canonical_json(self.snapshot()) + "\n"

    def merge(self, snapshot: dict[str, dict[str, object]]) -> None:
        """Fold a whole registry :meth:`snapshot` into this one, name by
        name in sorted order (see :meth:`MetricSeries.merge_snapshot`)."""
        for name in sorted(snapshot):
            payload = snapshot[name]
            self.series(name, str(payload["kind"])).merge_snapshot(payload)

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, dict[str, object]]) -> "SeriesRegistry":
        """Rebuild a registry from a :meth:`snapshot` / exported JSON value:
        one sized from the first series' bucket width, then :meth:`merge`,
        which checks every name and refuses a payload of another width.

        Used by the CLI to evaluate SLOs over a ``*.series.json`` file
        written by an earlier run.
        """
        if not snapshot:
            return cls()
        registry = cls(bucket_seconds=float(snapshot[min(snapshot)]["bucket_seconds"]))
        registry.merge(snapshot)
        return registry
