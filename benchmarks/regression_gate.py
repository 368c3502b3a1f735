"""Benchmark regression gate: fresh archived results vs committed baselines.

Every bench that passes ``manifest=``/``data=`` to ``record_result`` archives
a machine-readable ``benchmarks/results/<name>.json``.  This gate compares
those fresh archives against the committed ``benchmarks/baselines/<name>.json``
and fails when any numeric leaf drifts by more than the tolerance (20% by
default) — wall-clock seconds and deterministic metrics alike, per result.

Usage::

    python benchmarks/regression_gate.py            # compare, exit 1 on drift
    python benchmarks/regression_gate.py --run      # regenerate results first
    python benchmarks/regression_gate.py --update   # bless fresh results

Wall-clock leaves (``seconds_*``, ``delta_fraction``) are inherently noisy
across machines, which is why CI runs this gate as a *non-blocking* job: a
red gate is a prompt to look, not a merge blocker.  Deterministic metric
leaves (record counts, savings, credits) should never drift on the same
code — those failures are real regressions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

#: Maximum relative drift tolerated for any numeric leaf.
DEFAULT_TOLERANCE = 0.20

#: Result names under the gate → the bench file that regenerates each one.
GATED_RESULTS = {
    "fig6": "bench_fig6_overhead.py",
    "fig6_tracing_overhead": "bench_fig6_overhead.py",
    "fig6_replay_disabled_overhead": "bench_fig6_overhead.py",
    "perf_replay": "bench_perf_replay.py",
    "perf_fleet": "bench_perf_fleet.py",
    "store_ingest": "bench_store_ingest.py",
    "stream_merge": "bench_stream_merge.py",
}

#: Leaf-path substrings marking wall-clock-derived values (reported
#: separately so a red gate distinguishes noise from determinism breaks).
_TIMING_MARKERS = ("seconds", "delta_fraction", "wall", "speedup")

#: Leaves excluded from the drift check: ratios of wall-time *deltas*
#: amplify the noise of their inputs far past any usable tolerance.  The
#: raw ``seconds_*`` leaves they derive from are still gated.
_IGNORED_LEAVES = frozenset({"data.delta_fraction"})


def _is_timing(path: str) -> bool:
    leaf = path.rsplit(".", 1)[-1]
    return any(marker in leaf for marker in _TIMING_MARKERS)


def _numeric_leaves(node: object, prefix: str = "") -> dict[str, float]:
    """Flatten a JSON value tree to {dotted.path: numeric leaf}."""
    out: dict[str, float] = {}
    if isinstance(node, bool):  # bool is an int subclass; not a metric
        return out
    if isinstance(node, (int, float)):
        out[prefix or "<root>"] = float(node)
    elif isinstance(node, dict):
        for key in sorted(node):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(node[key], sub))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out.update(_numeric_leaves(item, f"{prefix}[{i}]"))
    return out


def _drift(baseline: float, fresh: float) -> float:
    """Relative drift of ``fresh`` vs ``baseline`` (symmetric denominator)."""
    denom = max(abs(baseline), abs(fresh), 1e-12)
    return abs(fresh - baseline) / denom


def compare_result(name: str, tolerance: float) -> list[str]:
    """Compare one fresh result against its baseline; return violations."""
    baseline_path = BASELINES_DIR / f"{name}.json"
    fresh_path = RESULTS_DIR / f"{name}.json"
    if not fresh_path.exists():
        return [
            f"{name}: no fresh result at {fresh_path} — run the bench first "
            f"(pytest benchmarks/{GATED_RESULTS[name]} --benchmark-only) or "
            f"pass --run"
        ]
    baseline = _numeric_leaves(json.loads(baseline_path.read_text()))
    fresh = _numeric_leaves(json.loads(fresh_path.read_text()))
    violations = []
    for path in sorted(set(baseline) | set(fresh)):
        if path in _IGNORED_LEAVES:
            continue
        if path not in fresh:
            violations.append(f"{name}: {path} missing from fresh result")
            continue
        if path not in baseline:
            violations.append(f"{name}: {path} not in baseline (new leaf?)")
            continue
        drift = _drift(baseline[path], fresh[path])
        if drift > tolerance:
            kind = "wall-time" if _is_timing(path) else "metric"
            violations.append(
                f"{name}: {kind} {path} drifted {drift:+.1%} "
                f"(baseline {baseline[path]:g}, fresh {fresh[path]:g}, "
                f"tolerance {tolerance:.0%})"
            )
    return violations


def run_benches(names: list[str]) -> int:
    """Regenerate the fresh results for ``names`` via pytest-benchmark."""
    bench_files = sorted({GATED_RESULTS[n] for n in names})
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(BENCH_DIR / f) for f in bench_files],
        "--benchmark-only",
        "-q",
    ]
    print(f"regenerating results: {' '.join(cmd)}")
    return subprocess.run(cmd, cwd=BENCH_DIR.parent, check=False).returncode


def update_baselines(names: list[str]) -> int:
    BASELINES_DIR.mkdir(exist_ok=True)
    missing = [n for n in names if not (RESULTS_DIR / f"{n}.json").exists()]
    if missing:
        print(f"cannot bless: no fresh result for {', '.join(missing)}")
        return 2
    for name in names:
        shutil.copyfile(RESULTS_DIR / f"{name}.json", BASELINES_DIR / f"{name}.json")
        print(f"blessed {BASELINES_DIR / f'{name}.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"max relative drift per numeric leaf (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="run the gated benches first to regenerate fresh results",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="bless the current fresh results as the new baselines",
    )
    parser.add_argument(
        "names",
        nargs="*",
        default=None,
        help="result names to gate (default: all with committed baselines)",
    )
    args = parser.parse_args(argv)
    names = args.names or sorted(GATED_RESULTS)
    unknown = [n for n in names if n not in GATED_RESULTS]
    if unknown:
        parser.error(f"unknown result name(s): {', '.join(unknown)}")

    if args.run:
        rc = run_benches(names)
        if rc != 0:
            print(f"bench run failed (exit {rc})")
            return rc
    if args.update:
        return update_baselines(names)

    missing_baselines = [n for n in names if not (BASELINES_DIR / f"{n}.json").exists()]
    if missing_baselines:
        print(
            f"no baseline for {', '.join(missing_baselines)} — "
            f"run with --update to create them"
        )
        return 2

    all_violations: list[str] = []
    for name in names:
        violations = compare_result(name, args.tolerance)
        status = "FAIL" if violations else "ok"
        print(f"{name}: {status}")
        for violation in violations:
            print(f"  {violation}")
        all_violations.extend(violations)
    if all_violations:
        print(
            f"\nregression gate FAILED: {len(all_violations)} violation(s). "
            f"If intentional, bless new baselines with --update."
        )
        return 1
    print(f"\nregression gate passed ({len(names)} result(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
