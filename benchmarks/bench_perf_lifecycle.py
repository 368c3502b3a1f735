"""Perf check: the query lifecycle vs the queue-always oracle.

Every query's trip through the simulator is paid in the customer history
and again in every training episode.  The library starts a query that
finds a free cluster and an empty queue straight from ``submit``, calls the
dispatch loop from a completion only when something is queued, and answers
a footprint the cluster cache still holds whole from a memo; the lifecycle
it replaced (every submit through the queue and the dispatch loop, every
access intersecting the cache) remains as the bit-exact test oracle
(``tests/props/lifecycle_oracle.py``;
``tests/props/test_lifecycle_oracle_props.py`` proves the equivalence).
This bench asserts the Figure 5 warehouses' simulation equals the oracle's,
QUERY_HISTORY row for row, billing segment for segment and RNG state for
RNG state, then times the simulation (``run_until`` to the horizon, after
``Scenario.schedule``) on both lifecycles.

Scale comes from ``REPRO_PERF_SCALE``: ``full`` (default; every scenario
stretched to 14 days, as the end-to-end benchmark's ``customer_only`` runs
them, 5 reps) or ``smoke`` (native horizons, 1 rep, for CI).  No timing
floor is asserted: the numbers are recorded.
"""

import os
import timeit

from repro.experiments.scenarios import Scenario, fig5_scenarios

from benchmarks.conftest import record_result, run_once
from tests.props import lifecycle_oracle

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
DAYS = {"full": 14, "smoke": None}[SCALE]
REPS = {"full": 5, "smoke": 1}[SCALE]


def scenarios() -> list[Scenario]:
    built = fig5_scenarios()
    if DAYS is not None:
        for scenario in built:
            scenario.total_days = DAYS
    return built


def simulate(batch: list[Scenario]) -> float:
    """Schedule every scenario, then run each to its horizon; returns the
    host seconds spent in the runs."""
    for scenario in batch:
        scenario.schedule()
    return timeit.timeit(
        lambda: [scenario.account.run_until(scenario.horizon) for scenario in batch], number=1
    )


def test_perf_lifecycle(benchmark):
    # The two lifecycles must agree bit for bit before either is worth timing.
    library, reference = scenarios(), scenarios()
    simulate(library)
    with lifecycle_oracle.installed():
        simulate(reference)
    n_queries = 0
    for got, want in zip(library, reference):
        snapshot = lifecycle_oracle.snapshot(got.account)
        assert snapshot == lifecycle_oracle.snapshot(want.account), (
            f"{got.name}: library lifecycle differs from the oracle"
        )
        n_queries += sum(len(w["rows"]) for w in snapshot["warehouses"].values())
    n_events = sum(s.account.sim.processed_events for s in library)

    def compare():
        # The sides alternate rep by rep, so a slow stretch of a shared
        # host lands on both.
        t_lib = t_ora = 0.0
        for _ in range(REPS):
            t_lib += simulate(scenarios())
            with lifecycle_oracle.installed():
                t_ora += simulate(scenarios())
        return t_lib, t_ora

    t_lib, t_ora = run_once(benchmark, compare)
    speedup = t_ora / t_lib
    record_result(
        "perf_lifecycle",
        f"fig5 simulation, {n_queries} queries, {n_events} events "
        f"({SCALE} scale, {REPS} reps):\n"
        f"  library lifecycle: {t_lib / REPS * 1e3:8.1f} ms/run\n"
        f"  queue-always:      {t_ora / REPS * 1e3:8.1f} ms/run\n"
        f"  speedup:           {speedup:8.2f}x",
        data={
            "n_events": n_events,
            "n_queries": n_queries,
            "reps": REPS,
            "seconds_library": t_lib,
            "seconds_oracle": t_ora,
            "speedup": speedup,
        },
    )
