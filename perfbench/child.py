"""One benchmark sample: one run of one workload in a fresh interpreter.

    python3 perfbench/child.py --root . --workload adhoc_before_after --seed 401 \\
        [--trace] [--folded out.folded]

``run.py`` starts this script once per sample and reads the JSON line it
prints, so every sample pays its own imports and no module-level state
(query ids, registries) carries over.  The host-speed probe (``speed.py``)
runs from the first line to the last.  Timings, in host seconds corrected
to the probe's reference speed (``raw_*``: as the clock read them):

* ``setup_s``: ``repro`` imports, scenario construction and
  ``Scenario.schedule()`` (workload generation and enqueueing);
* ``wall_s``: the protocol's host time, minus the ``schedule()`` share;
* ``protocol_s``: the protocol's host time including ``schedule()``;
* ``peak_rss_mb``: the process's peak resident set.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter_ns()

from speed import HostSpeed  # noqa: E402

_SPEED = HostSpeed()
_SPEED.arm()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Largest share by which the traced wall may differ from the protocol's time.
TRACE_WALL_TOLERANCE = 0.01


def _src_loc(src: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in sorted(src.rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--folded", type=Path)
    args = parser.parse_args(argv)

    src = args.root / "src"
    sys.path.insert(0, str(src))
    import repro.experiments.runner  # noqa: F401  (counted as set-up)

    import harness

    outcome = harness.Outcome()
    scenarios = harness.build(args.workload, args.seed, outcome)
    built = time.perf_counter_ns()
    scratch = args.root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)

    profiler = None
    if args.trace:
        import layers

        profiler = layers.LayerProfiler()
        with profiler.installed():
            begun = time.perf_counter_ns()
            profiler.start()
            harness.run(args.workload, scenarios, outcome, scratch)
            profiler.stop()
            ended = time.perf_counter_ns()
    else:
        begun = time.perf_counter_ns()
        harness.run(args.workload, scenarios, outcome, scratch)
        ended = time.perf_counter_ns()
    _SPEED.disarm()
    harness.count_program(scenarios, outcome)

    factor = _SPEED.factor(begun, ended)
    schedule_s = outcome.schedule_ns / factor / 1e9
    protocol_s = _SPEED.corrected_s(begun, ended, outcome.protocol_ns)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": _SPEED.corrected_s(_T0, built, built - _T0) + schedule_s,
        "wall_s": protocol_s - schedule_s,
        "protocol_s": protocol_s,
        "raw_setup_s": (built - _T0 + outcome.schedule_ns) / 1e9,
        "raw_wall_s": (outcome.protocol_ns - outcome.schedule_ns) / 1e9,
        "speed_factor": factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests": outcome.requests,
        "fingerprint": outcome.fingerprint,
        "fidelity": outcome.fidelity,
        "extras": outcome.extras,
        "failures": outcome.failures,
    }
    if profiler is not None:
        if profiler.open_at_stop:
            outcome.failures.append(f"layers left open at the end: {profiler.open_at_stop}")
        gap = abs(profiler.wall_ns - outcome.protocol_ns)
        if gap > TRACE_WALL_TOLERANCE * outcome.protocol_ns:
            outcome.failures.append(
                f"traced wall {profiler.wall_ns} ns misses the protocol's "
                f"{outcome.protocol_ns} ns by more than {TRACE_WALL_TOLERANCE:.0%}"
            )
        report["layers"] = {
            "wall_s": profiler.wall_ns / 1e9,
            "self_s": {k: v / 1e9 for k, v in profiler.self_ns().items()},
            "calls": profiler.calls,
            "counts": profiler.counts,
        }
        report["repo.src_loc"] = _src_loc(src)
        if args.folded is not None:
            args.folded.write_text(profiler.folded(args.workload), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
