"""Ad-hoc analytics workloads: unpredictable load with spikes and month-end
pressure.

This is the "significantly larger load near the month end" analyst
archetype of §2 C5 and the fluctuating warehouse of Figure 4a.  Arrivals are
a non-homogeneous Poisson process whose intensity combines a business-hours
profile, random *spike days* (e.g. an incident investigation), and a
month-end multiplier.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.simtime import DAY, Window, day_index
from repro.warehouse.queries import QueryRequest, QueryTemplate
from repro.workloads.base import (
    Workload,
    business_hours_profile,
    make_partition_universe,
    month_end_multiplier,
    poisson_arrivals,
    sample_table_subset,
    template_bytes,
)


class AdhocWorkload(Workload):
    """Unpredictable analyst queries."""

    def __init__(
        self,
        rng: np.random.Generator,
        templates: list[QueryTemplate],
        peak_rate_per_hour: float = 20.0,
        base_rate_per_hour: float = 0.5,
        spike_probability_per_day: float = 0.15,
        spike_multiplier: float = 4.0,
        month_end_boost: float = 2.0,
        #: Zipf-ish skew: analysts re-run a few favourite query shapes a lot.
        template_skew: float = 1.3,
    ):
        super().__init__(rng)
        self.templates = templates
        self.peak_rate_per_hour = peak_rate_per_hour
        self.base_rate_per_hour = base_rate_per_hour
        self.spike_probability_per_day = spike_probability_per_day
        self.spike_multiplier = spike_multiplier
        self.month_end_boost = month_end_boost
        weights = 1.0 / np.arange(1, len(templates) + 1) ** template_skew
        self._weights = weights / weights.sum()
        # Stable key for day-level spike draws (consumed once, deterministic).
        self._spike_seed = int(self.rng.integers(0, 2**31))

    @classmethod
    def synthesize(
        cls,
        rng: np.random.Generator,
        n_templates: int = 40,
        name_prefix: str = "adhoc",
        **kwargs,
    ) -> "AdhocWorkload":
        """Seeded random ad-hoc workload with very heterogeneous templates."""
        universe = make_partition_universe(name_prefix, n_tables=30, partitions_per_table=20)
        templates = []
        for i in range(n_templates):
            parts = sample_table_subset(
                rng, universe, n_tables=int(rng.integers(1, 5)), fraction=float(rng.uniform(0.2, 0.8))
            )
            templates.append(
                QueryTemplate(
                    name=f"{name_prefix}.q{i}",
                    # Lognormal work: most queries light, a heavy tail of big scans.
                    base_work_seconds=float(np.clip(rng.lognormal(2.5, 1.1), 1.0, 600.0)),
                    scale_exponent=float(rng.uniform(0.3, 1.0)),
                    bytes_scanned=template_bytes(parts),
                    partitions=parts,
                    cold_multiplier=float(rng.uniform(1.4, 2.6)),
                )
            )
        return cls(rng, templates, **kwargs)

    def _spike_days(self, window: Window) -> set[int]:
        """Deterministically sample which days in the window spike.

        Day-level draws use a child generator keyed only by the day index so
        the same day spikes (or not) regardless of the queried window.
        """
        days = set()
        for day in range(day_index(window.start), day_index(window.end - 1e-9) + 1):
            digest = hashlib.sha256(f"spike:{self._spike_seed}:{day}".encode()).digest()
            draw = int.from_bytes(digest[:8], "little") / 2**64
            if draw < self.spike_probability_per_day:
                days.add(day)
        return days

    def generate(self, window: Window) -> list[QueryRequest]:
        spikes = sorted(self._spike_days(window))

        def intensity(t: np.ndarray) -> np.ndarray:
            rate = business_hours_profile(t, self.base_rate_per_hour, self.peak_rate_per_hour)
            # ``x * 1.0 == x``: non-spike days keep their rate bit for bit.
            rate = rate * np.where(np.isin(t // DAY, spikes), self.spike_multiplier, 1.0)
            return rate * month_end_multiplier(t, self.month_end_boost)

        arrivals = poisson_arrivals(self.rng, window, intensity)
        picks = self.rng.choice(len(self.templates), size=len(arrivals), p=self._weights)
        # Already in time order.  Ad-hoc queries vary their constants: unique
        # text hash per submission, but a stable template hash.
        return [
            QueryRequest(
                template=self.templates[pick], arrival_time=t, instance_key=f"run{day_index(t)}:{i}"
            )
            for i, (pick, t) in enumerate(zip(picks.tolist(), arrivals))
        ]
