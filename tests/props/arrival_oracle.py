"""Per-candidate workload generation the array path replaced (test oracle).

These are :func:`repro.workloads.base.poisson_arrivals`,
``business_hours_profile`` and ``month_end_multiplier`` as they were when
the intensity was evaluated once per candidate arrival on a scalar time,
and the ``AdhocWorkload``/``BiWorkload`` generate loops that drew one
template pick and one panel offset per request.  They are kept verbatim so
``tests/props/test_workload_generation_props.py`` and
``benchmarks/bench_perf_workloads.py`` can hold the library generators to
them bit for bit: every arrival time by ``repr``, every request field, and
each generator's ``bit_generator.state`` afterwards.  Library code never
imports this module.

:func:`generate` drives the oracle loops on the *library's* workload
objects (their templates, dashboards, weights, spike days and RNG), so
only the loops differ from the library path.  ETL generation was never
vectorized and runs through the library.
"""

from __future__ import annotations

import numpy as np

from repro.common.simtime import DAY, Window, day_index, day_of_week, hour_of_day
from repro.warehouse.queries import QueryRequest
from repro.workloads.adhoc import AdhocWorkload
from repro.workloads.base import CompositeWorkload, Workload
from repro.workloads.bi import BiWorkload


def poisson_arrivals(
    rng: np.random.Generator, window: Window, rate_per_hour_fn
) -> list[float]:
    """Thinning with the intensity called once per probe and per candidate."""
    probes = np.arange(window.start, window.end + 1, 1800.0)
    lambda_max = max(float(rate_per_hour_fn(t)) for t in probes)
    if lambda_max <= 0:
        return []
    arrivals = []
    t = window.start
    while True:
        t += rng.exponential(3600.0 / lambda_max)
        if t >= window.end:
            break
        if rng.random() < rate_per_hour_fn(t) / lambda_max:
            arrivals.append(t)
    return arrivals


def business_hours_profile(
    t: float, base: float, peak: float, open_hour: float = 8.0, close_hour: float = 18.0
) -> float:
    if day_of_week(t) >= 5:
        return base
    h = hour_of_day(t)
    if not open_hour <= h < close_hour:
        return base
    span = close_hour - open_hour
    x = (h - open_hour) / span
    hump = 0.6 + 0.4 * (np.sin(np.pi * x) ** 2 + 0.5 * np.sin(2 * np.pi * x + 0.4) ** 2) / 1.5
    return base + (peak - base) * float(hump)


def month_end_multiplier(t: float, boost: float = 2.0, days: int = 3) -> float:
    day_in_month = int(t // DAY) % 28
    return boost if day_in_month >= 28 - days else 1.0


def generate_adhoc(workload: AdhocWorkload, window: Window) -> list[QueryRequest]:
    spikes = workload._spike_days(window)

    def intensity(t: float) -> float:
        rate = business_hours_profile(
            t, workload.base_rate_per_hour, workload.peak_rate_per_hour
        )
        if day_index(t) in spikes:
            rate *= workload.spike_multiplier
        rate *= month_end_multiplier(t, workload.month_end_boost)
        return rate

    arrivals = poisson_arrivals(workload.rng, window, intensity)
    requests = []
    for i, t in enumerate(arrivals):
        template = workload.templates[
            int(workload.rng.choice(len(workload.templates), p=workload._weights))
        ]
        requests.append(
            QueryRequest(template=template, arrival_time=t, instance_key=f"run{day_index(t)}:{i}")
        )
    return Workload._sorted(requests)


def generate_bi(workload: BiWorkload, window: Window) -> list[QueryRequest]:
    requests: list[QueryRequest] = []
    for dashboard in workload.dashboards:
        refresh_times = poisson_arrivals(
            workload.rng,
            window,
            lambda t, d=dashboard: business_hours_profile(
                t, d.refreshes_per_hour_base, d.refreshes_per_hour_peak
            ),
        )
        for refresh_at in refresh_times:
            for template in dashboard.panel:
                offset = float(workload.rng.uniform(0.0, dashboard.panel_spread_seconds))
                t = refresh_at + offset
                if not window.contains(t):
                    continue
                requests.append(
                    QueryRequest(template=template, arrival_time=t, instance_key=dashboard.name)
                )
    return Workload._sorted(requests)


def generate(workload: Workload, window: Window) -> list[QueryRequest]:
    """The oracle twin of ``workload.generate(window)``."""
    if isinstance(workload, CompositeWorkload):
        requests: list[QueryRequest] = []
        for part in workload.parts:
            requests.extend(generate(part, window))
        return Workload._sorted(requests)
    if isinstance(workload, AdhocWorkload):
        return generate_adhoc(workload, window)
    if isinstance(workload, BiWorkload):
        return generate_bi(workload, window)
    return workload.generate(window)
