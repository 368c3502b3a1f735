"""BI dashboard workloads: bursty, business-hours, cache-sensitive.

§3 calls BI out explicitly: "queries in BI workloads tend to access similar
data and therefore are more cache-sensitive".  Each dashboard is a fixed
panel of light queries over a shared set of tables; a *refresh* (user
opening the dashboard, or an auto-refresh) submits the whole panel within a
few seconds.  Refresh arrivals follow a business-hours intensity profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.simtime import Window
from repro.warehouse.queries import QueryRequest, QueryTemplate
from repro.workloads.base import (
    Workload,
    business_hours_profile,
    make_partition_universe,
    poisson_arrivals,
    sample_table_subset,
    template_bytes,
)


@dataclass
class DashboardSpec:
    """One dashboard: a panel of templates refreshed together."""

    name: str
    panel: list[QueryTemplate]
    refreshes_per_hour_peak: float
    refreshes_per_hour_base: float = 0.2
    #: Spread of panel query submissions within one refresh (seconds).
    panel_spread_seconds: float = 4.0


class BiWorkload(Workload):
    """A set of dashboards sharing a table universe (hence a shared cache
    footprint — exactly what makes suspend decisions delicate for BI)."""

    def __init__(self, rng: np.random.Generator, dashboards: list[DashboardSpec]):
        super().__init__(rng)
        if not dashboards:
            raise ConfigurationError("BI workload needs at least one dashboard")
        self.dashboards = dashboards

    @classmethod
    def synthesize(
        cls,
        rng: np.random.Generator,
        n_dashboards: int = 6,
        panels_per_dashboard: int = 8,
        peak_refreshes_per_hour: float = 6.0,
        base_work_range: tuple[float, float] = (2.0, 30.0),
        name_prefix: str = "bi",
    ) -> "BiWorkload":
        """Seeded random BI workload over a shared 12-table universe."""
        universe = make_partition_universe(name_prefix, n_tables=12, partitions_per_table=16)
        dashboards = []
        for d in range(n_dashboards):
            panel = []
            for q in range(panels_per_dashboard):
                parts = sample_table_subset(rng, universe, n_tables=2, fraction=0.6)
                panel.append(
                    QueryTemplate(
                        name=f"{name_prefix}.d{d}.q{q}",
                        base_work_seconds=float(rng.uniform(*base_work_range)),
                        scale_exponent=float(rng.uniform(0.5, 0.85)),
                        bytes_scanned=template_bytes(parts),
                        partitions=parts,
                        cold_multiplier=float(rng.uniform(2.0, 4.0)),
                    )
                )
            dashboards.append(
                DashboardSpec(
                    name=f"{name_prefix}.d{d}",
                    panel=panel,
                    refreshes_per_hour_peak=float(
                        rng.uniform(0.5, 1.0) * peak_refreshes_per_hour
                    ),
                )
            )
        return cls(rng, dashboards)

    def generate(self, window: Window) -> list[QueryRequest]:
        requests: list[QueryRequest] = []
        for dashboard in self.dashboards:
            refresh_times = poisson_arrivals(
                self.rng,
                window,
                lambda t, d=dashboard: business_hours_profile(
                    t, d.refreshes_per_hour_base, d.refreshes_per_hour_peak
                ),
            )
            # One row of panel offsets per refresh: the scalar draws' stream.
            offsets = self.rng.uniform(
                0.0, dashboard.panel_spread_seconds, size=(len(refresh_times), len(dashboard.panel))
            )
            times = np.array(refresh_times).reshape(-1, 1) + offsets
            inside = (window.start <= times) & (times < window.end)
            # Dashboards re-issue the *same* SQL text every refresh: identical
            # text hashes over time, which the latency model exploits (footnote 4).
            requests.extend(
                QueryRequest(
                    template=dashboard.panel[q], arrival_time=t, instance_key=dashboard.name
                )
                for q, t in zip(np.nonzero(inside)[1].tolist(), times[inside].tolist())
            )
        return self._sorted(requests)
