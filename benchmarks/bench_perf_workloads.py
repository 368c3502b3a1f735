"""Perf check: array-path workload generation vs the per-candidate loops.

Every run generates its workload before the first simulated second
(``Scenario.schedule``), so generation is set-up time the whole benchmark
pays.  The library evaluates each thinning pass's intensity once over all
candidates, draws a dashboard's panel offsets as one block and picks an
ad-hoc stream's templates in one call; the per-candidate loops it replaced
remain as the bit-exact test oracle (``tests/props/arrival_oracle.py``;
``tests/props/test_workload_generation_props.py`` proves the equivalence).
This bench asserts the library generation of the Figure 5 warehouses and
the Figure 4a warehouse equals the oracle's, request for request and RNG
state for RNG state, then times ``Scenario.schedule()`` against the
oracle's generation scheduled the same way.

Scale comes from ``REPRO_PERF_SCALE``: ``full`` (default; every scenario
stretched to 14 days, as the end-to-end benchmark's ``customer_only`` and
``adhoc_before_after`` run them, 5 reps) or ``smoke`` (native horizons,
1 rep, for CI).  No timing floor is asserted: the numbers are recorded.
"""

import os
import timeit

from repro.common.simtime import Window
from repro.experiments.scenarios import Scenario, fig4a_scenario, fig5_scenarios
from repro.workloads.base import CompositeWorkload

from benchmarks.conftest import record_result, run_once
from tests.props import arrival_oracle

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
DAYS = {"full": 14, "smoke": None}[SCALE]
REPS = {"full": 5, "smoke": 1}[SCALE]


def scenarios() -> list[Scenario]:
    built = fig5_scenarios() + [fig4a_scenario()]
    if DAYS is not None:
        for scenario in built:
            scenario.total_days = DAYS
    return built


def _parts(scenario: Scenario) -> list:
    workload = scenario.workload
    return workload.parts if isinstance(workload, CompositeWorkload) else [workload]


def _fingerprint(scenario: Scenario, requests) -> tuple:
    rows = [(r.template.name, repr(r.arrival_time), r.instance_key, r.chained) for r in requests]
    assert all(type(r.arrival_time) is float for r in requests)
    return rows, [part.rng.bit_generator.state for part in _parts(scenario)]


def oracle_schedule(scenario: Scenario) -> int:
    """``Scenario.schedule`` with the oracle's generation."""
    requests = arrival_oracle.generate(scenario.workload, Window(0.0, scenario.horizon))
    scenario.account.schedule_workload(scenario.warehouse, requests)
    return len(requests)


def _timed(schedule) -> float:
    total = 0.0
    for _ in range(REPS):
        batch = scenarios()
        total += timeit.timeit(lambda: [schedule(s) for s in batch], number=1)
    return total


def test_perf_workloads(benchmark):
    # The two paths must agree bit for bit before either is worth timing.
    n_requests = 0
    for library, reference in zip(scenarios(), scenarios()):
        window = Window(0.0, library.horizon)
        got = _fingerprint(library, library.workload.generate(window))
        want = _fingerprint(reference, arrival_oracle.generate(reference.workload, window))
        assert got == want, f"{library.name}: library generation differs from the oracle"
        n_requests += len(got[0])

    def compare():
        return _timed(Scenario.schedule), _timed(oracle_schedule)

    t_lib, t_ora = run_once(benchmark, compare)
    speedup = t_ora / t_lib
    record_result(
        "perf_workloads",
        f"Scenario.schedule() of fig5 + fig4a, {n_requests} requests "
        f"({SCALE} scale, {REPS} reps):\n"
        f"  array path:    {t_lib / REPS * 1e3:8.1f} ms/schedule\n"
        f"  per-candidate: {t_ora / REPS * 1e3:8.1f} ms/schedule\n"
        f"  speedup:       {speedup:8.2f}x",
        data={
            "n_requests": n_requests,
            "reps": REPS,
            "seconds_library": t_lib,
            "seconds_oracle": t_ora,
            "speedup": speedup,
        },
    )
