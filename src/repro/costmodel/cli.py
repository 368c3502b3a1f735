"""Cost-model CLI: smoke-drive the incremental what-if ledger.

``costmodel stream`` feeds a deterministic synthetic QUERY_HISTORY row by
row (completion order, as a streaming ingest would see it) into an
:class:`IncrementalReplay`, printing the running projection, and exits
non-zero unless the ledger's final answer is **bit-identical** to a fresh
full :class:`QueryReplay` over the same rows: every :class:`ReplayResult`
field equal, and divergence printed as 0.0.

CI runs this in the observability smoke job: a refactor that breaks the
streaming fold shows up as a non-zero divergence here before any property
test shrinks a counterexample.
"""

from __future__ import annotations

import argparse
from typing import IO

from repro.common.cli import flag
from repro.common.rng import RngRegistry
from repro.common.simtime import HOUR, Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.incremental import IncrementalReplay
from repro.costmodel.latency import LatencyScalingModel
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

_SIZES = (WarehouseSize.S, WarehouseSize.M, WarehouseSize.L)


def _synthetic_records(n: int, horizon: float, seed: int) -> list[QueryRecord]:
    rng = RngRegistry(seed=seed).stream("costmodel.stream")
    gaps = rng.exponential(horizon / (n + 1), size=n)
    arrivals = gaps.cumsum()
    durations = rng.lognormal(mean=2.0, sigma=1.0, size=n)
    templates = rng.integers(0, 8, size=n)
    sizes = rng.integers(0, len(_SIZES), size=n)
    cache_hits = rng.uniform(0.0, 1.0, size=n)
    chained = rng.uniform(0.0, 1.0, size=n) < 0.1
    return [
        QueryRecord(
            query_id=i,
            warehouse="STREAM_WH",
            text_hash=f"q{i}",
            template_hash=f"t{int(templates[i])}",
            arrival_time=float(arrivals[i]),
            start_time=float(arrivals[i]),
            end_time=float(arrivals[i]) + float(durations[i]),
            execution_seconds=float(durations[i]),
            warehouse_size=_SIZES[int(sizes[i])],
            cache_hit_ratio=float(cache_hits[i]),
            cluster_number=1,
            chained=bool(chained[i]),
            completed=True,
        )
        for i in range(n)
    ]


def stream(args: argparse.Namespace, out: IO[str]) -> int:
    window = Window(0.0, args.hours * HOUR)
    records = _synthetic_records(args.rows, window.end, args.seed)
    records = [r for r in records if r.arrival_time < window.end]
    latency = LatencyScalingModel().fit(records)
    gap_model = GapModel().fit(records)
    config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=120.0)
    clusters = ClusterCountPredictor().fit(records, config)
    ledger = IncrementalReplay(latency, gap_model, clusters, window)
    every = args.every if args.every > 0 else max(1, len(records) // 4)
    print(
        f"streaming {len(records)} rows over {window.duration / HOUR:g} h "
        f"under {config.describe()}",
        file=out,
    )
    print(f"{'rows':>6} {'credits':>10}", file=out)
    feed = sorted(records, key=lambda r: r.end_time)
    for i, record in enumerate(feed):
        ledger.observe(record)
        if (i + 1) % every == 0 or i == len(feed) - 1:
            print(f"{i + 1:>6} {ledger.result(config).credits:>10.4f}", file=out)
    incremental, full, divergence = ledger.verify(config)
    print(
        f"final: incremental={incremental.credits:.6f}cr "
        f"full-replay={full.credits:.6f}cr divergence={divergence}",
        file=out,
    )
    if divergence != 0.0 or incremental != full:
        print("FAIL: incremental ledger diverged from the full replay", file=out)
        return 1
    return 0


#: The ``costmodel`` family: one row per subcommand (repro.common.cli).
COMMANDS = (
    (
        "stream", stream,
        "stream a synthetic history through the incremental ledger "
        "and verify it against a full replay",
        flag("--rows", type=int, default=400, help="synthetic rows"),
        flag("--hours", type=float, default=6.0, help="window length in sim hours"),
        flag("--seed", type=int, default=20260808),
        flag(
            "--every", type=int, default=0,
            help="print the running projection every N rows (0 = quarters)",
        ),
    ),
)
