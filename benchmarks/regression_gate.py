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
    python benchmarks/regression_gate.py --run --base origin/main

Wall-clock leaves (``seconds_*``, ``delta_fraction``) depend on the host:
compared with baselines timed on another machine they drift on unchanged
code.  ``--base <ref>`` (implies ``--run``) regenerates the gated results at
``<ref>`` in a temporary ``git worktree`` on the same host, and compares the timing
leaves against those instead; deterministic metric leaves (record
counts, savings, credits) keep comparing against the committed
baselines, where any drift is a real regression.  CI runs the gate with
``--base`` set to the pull request's base commit, as a *non-blocking*
job: a red gate is a prompt to look, not a merge blocker.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterator

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
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


def _leaves(path: pathlib.Path) -> dict[str, float]:
    return _numeric_leaves(json.loads(path.read_text()))


def compare_result(
    name: str, tolerance: float, timing_dir: pathlib.Path | None = None
) -> list[str]:
    """Compare one fresh result against its baseline; return violations.

    With ``timing_dir`` (results regenerated at the base ref on this host),
    timing leaves compare against that directory's result instead of the
    committed baseline.
    """
    fresh_path = RESULTS_DIR / f"{name}.json"
    if not fresh_path.exists():
        return [
            f"{name}: no fresh result at {fresh_path} — run the bench first "
            f"(pytest benchmarks/{GATED_RESULTS[name]} --benchmark-only) or "
            f"pass --run"
        ]
    fresh = _leaves(fresh_path)
    baseline = _leaves(BASELINES_DIR / f"{name}.json")
    if timing_dir is not None:
        base_path = timing_dir / f"{name}.json"
        if not base_path.exists():
            return [f"{name}: the base ref produced no result at {base_path}"]
        baseline = {k: v for k, v in baseline.items() if not _is_timing(k)}
        baseline.update({k: v for k, v in _leaves(base_path).items() if _is_timing(k)})
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
            timing = _is_timing(path)
            source = "base" if timing and timing_dir is not None else "baseline"
            violations.append(
                f"{name}: {'wall-time' if timing else 'metric'} {path} drifted "
                f"{drift:+.1%} ({source} {baseline[path]:g}, fresh {fresh[path]:g}, "
                f"tolerance {tolerance:.0%})"
            )
    return violations


def run_benches(names: list[str], root: pathlib.Path = REPO_ROOT) -> int:
    """Regenerate the results for ``names`` via pytest-benchmark, from the
    checkout at ``root`` (its own ``src`` on the path)."""
    bench_files = sorted({GATED_RESULTS[n] for n in names})
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(root / "benchmarks" / f) for f in bench_files],
        "--benchmark-only",
        "-q",
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    print(f"regenerating results in {root}: {' '.join(cmd)}")
    return subprocess.run(cmd, cwd=root, env=env, check=False).returncode


@contextmanager
def base_checkout(ref: str) -> Iterator[pathlib.Path]:
    """A temporary ``git worktree`` of ``ref``, removed on exit."""
    path = pathlib.Path(tempfile.mkdtemp(prefix="regression-base-"))
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(path), ref], cwd=REPO_ROOT, check=True
    )
    try:
        yield path
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(path)], cwd=REPO_ROOT, check=False
        )
        shutil.rmtree(path, ignore_errors=True)


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


def _report(names: list[str], tolerance: float, timing_dir: pathlib.Path | None) -> list[str]:
    """Compare every result, print a verdict per name; return all violations."""
    all_violations: list[str] = []
    for name in names:
        violations = compare_result(name, tolerance, timing_dir)
        print(f"{name}: {'FAIL' if violations else 'ok'}")
        for violation in violations:
            print(f"  {violation}")
        all_violations.extend(violations)
    return all_violations


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
        "--base",
        metavar="REF",
        help="regenerate the gated results at this git ref on this host and "
        "compare timing leaves against them (metric leaves still compare "
        "against the committed baselines); implies --run",
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

    if args.run or args.base is not None:
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

    if args.base is None:
        all_violations = _report(names, args.tolerance, None)
    else:
        with base_checkout(args.base) as root:
            rc = run_benches(names, root)
            if rc != 0:
                print(f"bench run at {args.base} failed (exit {rc})")
                return rc
            all_violations = _report(names, args.tolerance, root / "benchmarks" / "results")
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
