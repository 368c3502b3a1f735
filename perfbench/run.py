"""End-to-end KWO run benchmark with per-layer wall-time attribution.

    python3 perfbench/run.py --workload adhoc_before_after [--seed 401] \\
        [--seconds 40] [--trace 0|1]

Every sample is a whole run of one workload (``harness.py``) in a fresh
interpreter (``child.py``), one at a time: a closed loop with ``workers=0``.
The run keeps starting samples until the next one would end past
``--seconds``.

* ``--trace 0`` reports the end-to-end metrics as the median over the
  untraced samples.  ``wall_s`` and ``setup_s`` are host times corrected
  for the host's momentary speed (``speed.py``).
* ``--trace 1`` runs untraced samples as the overhead reference, then one
  traced sample with timing shims on every layer (``layers.py``), and
  reports per-layer self time, call counts and work counts.  It also writes
  the traced run's folded stacks to ``.perfbench_out/``.

Every sample is checked: it must finish, break no invariant (``harness``),
and match the first sample's fingerprint, digest included.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import DEFAULT_SEEDS, WORKLOADS  # noqa: E402
from layers import LAYERS, TARGETS  # noqa: E402

#: Per-sample limit (a normal sample takes 4-15 s); a sample that runs
#: longer is killed and counts as failed, so a run still ends within 180 s.
CHILD_TIMEOUT_S = 90.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

#: Per-layer counts read from the program itself rather than from a shim.
_RUN_COUNTS = {
    "workloads": ("requests",),
    "warehouse.engine": ("events", "scheduled"),
    "warehouse.telemetry": ("rows_written",),
    "core.actuator": ("errors", "retries"),
    "obs": ("records",),
}


def per_layer_catalogue() -> list[tuple[str, str]]:
    """Every ``--trace 1`` metric name with its unit, in report order."""
    counts = {layer: list(_RUN_COUNTS.get(layer, ())) for layer in LAYERS}
    for target in TARGETS:
        for name in (target.count, target.measure[0] if target.measure else None):
            if name and name not in counts[target.layer]:
                counts[target.layer].append(name)
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
        names += [(f"{layer}.{count}", "count") for count in counts[layer]]
    names += [
        ("other.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.speed_factor", "ratio"),
        ("trace.overhead_frac", "fraction"),
        ("faults.injected", "count"),
        ("optimizer.ticks", "count"),
        ("optimizer.retrains", "count"),
        ("fidelity.savings_frac", "fraction"),
        ("fidelity.p99_change_frac", "fraction"),
        ("fidelity.costmodel_err", "fraction"),
        ("repo.src_loc", "lines"),
    ]
    return names


def _sample(workload: str, seed: int, *flags: str) -> tuple[dict | None, float]:
    """Run ``child.py`` once: its report (None if it broke) and host seconds."""
    command = [
        sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
        "--workload", workload, "--seed", str(seed), *flags,
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, elapsed
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def _check(reports: list[dict | None]) -> tuple[int, list[str]]:
    """Failed-sample count and reasons: a crash, a broken invariant, or a
    fingerprint that differs from the first sample's (more or less work)."""
    reference = next((r["fingerprint"] for r in reports if r is not None), None)
    failed, reasons = 0, []
    for i, report in enumerate(reports):
        if report is None:
            problems = ["did not finish"]
        else:
            problems = list(report["failures"])
            if report["fingerprint"] != reference:
                problems.append(f"fingerprint {report['fingerprint']} != {reference}")
        if problems:
            failed += 1
            reasons += [f"sample {i}: {p}" for p in problems]
    return failed, reasons


def _layer_metrics(traced: dict, untraced: list[dict]) -> dict[str, float]:
    layers = traced["layers"]
    fingerprint, extras, fidelity = traced["fingerprint"], traced["extras"], traced["fidelity"]
    # Layer times are corrected by the traced sample's host speed, like the
    # end-to-end times, so the layers and ``other`` still add up to
    # ``trace.wall_s``.
    factor = traced["speed_factor"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers["self_s"][layer] / factor
        values[f"{layer}.calls"] = layers["calls"][layer]
    values.update(layers["counts"])
    reference = statistics.median(r["protocol_s"] for r in untraced)
    values.update(
        {
            "workloads.requests": traced["requests"],
            "warehouse.engine.events": fingerprint["warehouse.engine.events"],
            "warehouse.engine.scheduled": fingerprint["warehouse.engine.scheduled"],
            "warehouse.telemetry.rows_written": fingerprint["warehouse.telemetry.rows_written"],
            "core.actuator.errors": extras.get("core.actuator.errors", 0),
            "core.actuator.retries": extras.get("core.actuator.retries", 0),
            "obs.records": fingerprint.get("obs.records", 0),
            "other.self_s": layers["self_s"]["other"] / factor,
            "trace.wall_s": layers["wall_s"] / factor,
            "trace.speed_factor": factor,
            "trace.overhead_frac": traced["protocol_s"] / reference - 1.0,
            "faults.injected": fingerprint.get("faults.injected", 0),
            "optimizer.ticks": fingerprint.get("optimizer.ticks", 0),
            "optimizer.retrains": fingerprint.get("optimizer.retrains", 0),
            "fidelity.savings_frac": fidelity.get("savings_frac", 0.0),
            "fidelity.p99_change_frac": fidelity.get("p99_change_frac", 0.0),
            "fidelity.costmodel_err": fidelity.get("costmodel_err", 0.0),
            "repo.src_loc": traced["repo.src_loc"],
        }
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    # The traced sample costs about two untraced ones; keep room for it.
    reserve = 2 if args.trace else 0
    runs: list[dict | None] = []
    durations: list[float] = []
    while True:
        report, elapsed = _sample(args.workload, seed)
        runs.append(report)
        durations.append(elapsed)
        if time.perf_counter() + (1 + reserve) * statistics.median(durations) > deadline:
            break

    traced = None
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        folded = out / f"{args.workload}-seed{seed}.folded"
        traced, _ = _sample(args.workload, seed, "--trace", "--folded", str(folded))
        print(f"folded stacks: {folded}")

    samples = runs + ([traced] if args.trace else [])
    failed, reasons = _check(samples)
    for reason in reasons:
        print(f"FAILED {reason}")
    for i, report in enumerate(samples):
        if report is not None:
            kind = "traced" if "layers" in report else "untraced"
            print(
                f"sample {i} ({kind}): wall_s={report['wall_s']:.4f} "
                f"setup_s={report['setup_s']:.4f} peak_rss_mb={report['peak_rss_mb']:.2f} "
                f"(raw wall {report['raw_wall_s']:.4f} s, setup {report['raw_setup_s']:.4f} s, "
                f"host speed factor {report['speed_factor']:.3f})"
            )

    good = [r for r in runs if r is not None]
    metrics: dict[str, dict] = {}
    if args.trace and traced is not None and good:
        values = _layer_metrics(traced, good)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_catalogue()
        }
    elif not args.trace and good:
        metrics = {
            name: {"value": statistics.median(r[name] for r in good), "unit": unit}
            for name, unit in END_TO_END
        }
    print(f"{args.workload} seed={seed}: {len(good)} untraced sample(s)")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": len(samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
