"""Workload generator framework.

A workload is a deterministic (seeded) generator of
:class:`~repro.warehouse.queries.QueryRequest` arrivals over a time window.
Archetypes mirror the workload families the paper keeps contrasting (§2 C5,
§3, §7): recurring ETL, cache-sensitive BI dashboards, and unpredictable
ad-hoc analytics with spikes and month-end load.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import fallback_rng
from repro.common.simtime import DAY, HOUR, Window
from repro.warehouse.queries import QueryRequest, QueryTemplate


class Workload(abc.ABC):
    """Base class for deterministic workload generators."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    @abc.abstractmethod
    def generate(self, window: Window) -> list[QueryRequest]:
        """Emit all query arrivals inside ``window`` (sorted by time)."""

    @staticmethod
    def _sorted(requests: list[QueryRequest]) -> list[QueryRequest]:
        return sorted(requests, key=attrgetter("arrival_time"))


class CompositeWorkload(Workload):
    """Union of several workloads driving the same warehouse."""

    def __init__(self, parts: Sequence[Workload]):
        if not parts:
            raise ConfigurationError("composite workload needs at least one part")
        # No rng of its own: parts carry their own streams.
        super().__init__(fallback_rng())
        self.parts = list(parts)

    def generate(self, window: Window) -> list[QueryRequest]:
        requests: list[QueryRequest] = []
        for part in self.parts:
            requests.extend(part.generate(window))
        return self._sorted(requests)


def poisson_arrivals(
    rng: np.random.Generator, window: Window, rate_per_hour_fn
) -> list[float]:
    """Sample a non-homogeneous Poisson process by thinning.

    ``rate_per_hour_fn(t)`` maps an array of simulation times to their
    intensities (queries/hour) elementwise.  The envelope rate is probed
    every 30 minutes across the window, so intensity functions should be
    piecewise-smooth at sub-half-hour scale.
    """
    lambda_max = float(np.max(rate_per_hour_fn(np.arange(window.start, window.end + 1, 1800.0))))
    if lambda_max <= 0:
        return []
    exponential, uniform, scale = rng.exponential, rng.random, 3600.0 / lambda_max
    times, draws = [], []
    t = window.start
    while True:
        t += exponential(scale)
        if t >= window.end:
            break
        times.append(t)
        draws.append(uniform())
    times = np.array(times)
    return times[np.array(draws) < rate_per_hour_fn(times) / lambda_max].tolist()


def business_hours_profile(
    t, base: float, peak: float, open_hour: float = 8.0, close_hour: float = 18.0
):
    """Weekday intensity profile: ``base`` off-hours, humped ``peak`` during
    business hours with morning and afternoon maxima; weekends at ``base``.
    Elementwise over an array of times; a scalar time gives a ``float``."""
    t = np.asarray(t, dtype=float)
    h = (t % DAY) / HOUR
    # Two-hump shape: peaks at ~10:30 and ~15:00.  float_power is libm pow, as
    # ``**`` is on a scalar; on an array ``**`` squares and can differ in ulp.
    x = (h - open_hour) / (close_hour - open_hour)
    hump = 0.6 + 0.4 * (
        np.float_power(np.sin(np.pi * x), 2) + 0.5 * np.float_power(np.sin(2 * np.pi * x + 0.4), 2)
    ) / 1.5
    open_now = ((t // DAY) % 7 < 5) & (open_hour <= h) & (h < close_hour)
    rate = np.where(open_now, base + (peak - base) * hump, base)
    return rate if rate.ndim else float(rate)


def month_end_multiplier(t, boost: float = 2.0, days: int = 3):
    """Load multiplier near the end of the simulated 28-day month
    (elementwise over an array of times; a scalar time gives a ``float``)."""
    multiplier = np.where((np.asarray(t) // DAY) % 28 >= 28 - days, boost, 1.0)
    return multiplier if multiplier.ndim else float(multiplier)


def make_partition_universe(prefix: str, n_tables: int, partitions_per_table: int) -> list[tuple[str, ...]]:
    """Per-table partition tuples, the cacheable footprint of each table."""
    return [
        tuple(f"{prefix}.t{table}.p{p}" for p in range(partitions_per_table))
        for table in range(n_tables)
    ]


def sample_table_subset(
    rng: np.random.Generator, universe: list[tuple[str, ...]], n_tables: int, fraction: float
) -> tuple[str, ...]:
    """Pick ``n_tables`` tables and a fraction of each table's partitions."""
    chosen = rng.choice(len(universe), size=min(n_tables, len(universe)), replace=False)
    parts: list[str] = []
    for idx in chosen:
        table = universe[int(idx)]
        k = max(1, int(round(fraction * len(table))))
        start = int(rng.integers(0, max(1, len(table) - k + 1)))
        parts.extend(table[start : start + k])
    return tuple(parts)


def template_bytes(partitions: tuple[str, ...]) -> float:
    """Bytes scanned implied by a partition footprint."""
    from repro.warehouse.cache import PARTITION_BYTES

    return float(len(partitions) * PARTITION_BYTES)


__all__ = [
    "Workload",
    "CompositeWorkload",
    "poisson_arrivals",
    "business_hours_profile",
    "month_end_multiplier",
    "make_partition_universe",
    "sample_table_subset",
    "template_bytes",
    "QueryRequest",
    "QueryTemplate",
]
