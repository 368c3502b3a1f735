"""Perf gate: vectorized replay kernels vs the scalar reference loops.

``QueryReplay`` is the smart model's inner loop — thousands of what-if
replays per optimization run (§5) — so its counterfactual timeline,
activation-burst and billing kernels were rewritten as NumPy array code
(``repro.costmodel.kernels``).  The scalar loops remain as the bit-exact
test oracle (``tests/props/replay_oracle.py``; tests/props/
test_replay_kernels.py proves the equivalence); this bench proves the
rewrite is actually *fast*, holding the library replay to a ≥5x speedup
over the oracle on a 10k-query window at full scale.

Scale comes from ``REPRO_PERF_SCALE``: ``full`` (default, 10k queries,
gated) or ``smoke`` (1k queries for CI, numbers recorded but the speedup
floor is not asserted — tiny windows under-use the kernels).
"""

import os
import timeit

from repro.common.rng import RngRegistry
from repro.common.simtime import DAY, Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import QueryReplay
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

from benchmarks.conftest import record_result, run_once
from tests.props import replay_oracle

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
N_QUERIES = {"full": 10_000, "smoke": 1_000}[SCALE]
REPS = {"full": 5, "smoke": 3}[SCALE]
SPEEDUP_FLOOR = 5.0

_SIZES = (WarehouseSize.S, WarehouseSize.M, WarehouseSize.L)


def synthetic_records(n: int, days: float = 5.0) -> list[QueryRecord]:
    """A bursty multi-template history spanning ``days`` of sim time."""
    rng = RngRegistry(seed=20260806).stream("bench.perf_replay")
    gaps = rng.exponential(days * DAY / n, size=n)
    arrivals = gaps.cumsum()
    durations = rng.lognormal(mean=2.0, sigma=1.0, size=n)
    templates = rng.integers(0, 10, size=n)
    sizes = rng.integers(0, len(_SIZES), size=n)
    cache_hits = rng.uniform(0.0, 1.0, size=n)
    chained = rng.uniform(0.0, 1.0, size=n) < 0.1
    records = []
    for i in range(n):
        arrival = float(arrivals[i])
        duration = float(durations[i])
        records.append(
            QueryRecord(
                query_id=i,
                warehouse="PERF_WH",
                text_hash=f"q{i}",
                template_hash=f"t{int(templates[i])}",
                arrival_time=arrival,
                start_time=arrival,
                end_time=arrival + duration,
                execution_seconds=duration,
                warehouse_size=_SIZES[int(sizes[i])],
                cache_hit_ratio=float(cache_hits[i]),
                cluster_number=1,
                chained=bool(chained[i]),
                completed=True,
            )
        )
    return records


def fitted_replay(records: list[QueryRecord]) -> QueryReplay:
    config = WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=300.0)
    return QueryReplay(
        LatencyScalingModel().fit(records),
        GapModel().fit(records),
        ClusterCountPredictor().fit(records, config),
    )


def test_perf_replay(benchmark):
    records = synthetic_records(N_QUERIES)
    window = Window(0.0, 6.0 * DAY)
    config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=120.0)
    replay = fitted_replay(records)

    # The two paths must agree bit for bit before either is worth timing.
    assert replay.replay(records, config, window) == replay_oracle.replay(
        replay, records, config, window
    )

    def compare():
        t_vec = timeit.timeit(lambda: replay.replay(records, config, window), number=REPS)
        t_sca = timeit.timeit(
            lambda: replay_oracle.replay(replay, records, config, window), number=REPS
        )
        return t_vec, t_sca

    t_vec, t_sca = run_once(benchmark, compare)
    speedup = t_sca / t_vec
    record_result(
        "perf_replay",
        f"replay of {N_QUERIES} queries ({SCALE} scale, {REPS} reps):\n"
        f"  vectorized: {t_vec / REPS * 1e3:8.2f} ms/replay\n"
        f"  scalar:     {t_sca / REPS * 1e3:8.2f} ms/replay\n"
        f"  speedup:    {speedup:8.2f}x",
        data={
            "n_queries": N_QUERIES,
            "reps": REPS,
            "seconds_vectorized": t_vec,
            "seconds_scalar": t_sca,
            "speedup": speedup,
        },
    )
    if SCALE == "full":
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized replay only {speedup:.1f}x faster than scalar "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
