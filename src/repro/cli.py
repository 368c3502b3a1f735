"""Command-line entry point: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli list                  # the experiment commands
    python -m repro.cli fig4a [--seed 401]    # one §7 protocol's rows
    python -m repro.cli <family> --help       # lint, obs, faults, durability, costmodel

Every command is a row of :data:`COMMANDS` (repro.common.cli): an
experiment row takes only the flags its handler reads, and each family
module (``lint``: docs/INVARIANTS.md; ``obs``: docs/OBSERVABILITY.md;
``faults``/``durability``: docs/ROBUSTNESS.md; ``costmodel``:
docs/PERFORMANCE.md) contributes its own rows.  Each experiment runs the
corresponding §7 protocol and prints the same rows/series the paper's
figure reports (the benchmarks wrap these same protocols with timing and
assertions).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import IO

import repro.durability.cli as durability_cli
import repro.faults.cli as faults_cli
import repro.lint.cli as lint_cli
import repro.obs.cli as obs_cli
from repro.common.cli import add_commands, flag, run_command

from repro.experiments.runner import (
    run_before_after,
    run_cost_model_accuracy,
    run_fleet,
    run_onboarding_curve,
    run_overhead,
    run_slider_sweep,
)
from repro.parallel import StreamConfig
from repro.experiments.scenarios import (
    fig4a_scenario,
    fig4b_scenario,
    fig5_scenarios,
    fig6_scenario,
    fleet_scenarios,
    onboarding_scenario,
)
from repro.portal.reports import render_overhead, render_savings


def _cmd_fig4(builder, args: argparse.Namespace, out: IO[str]) -> int:
    result, _ = run_before_after(builder(seed=args.seed) if args.seed else builder())
    print(render_savings(result.dashboard), file=out)
    print(f"\np99 change: {result.p99_change_fraction():+.1%}", file=out)
    print(f"cost-model estimated savings: {result.estimated_savings_fraction:.1%}", file=out)
    return 0


def _cmd_fig5(args: argparse.Namespace, out: IO[str]) -> int:
    rows = run_cost_model_accuracy(fig5_scenarios(seed=args.seed or 500))
    print(f"{'warehouse':>12} {'actual':>9} {'estimated':>10} {'rel.err':>8}", file=out)
    for row in rows:
        print(
            f"{row.warehouse:>12} {row.actual_credits:>9.2f} "
            f"{row.estimated_credits:>10.2f} {row.relative_error:>8.2%}",
            file=out,
        )
    return 0


def _cmd_fig6(args: argparse.Namespace, out: IO[str]) -> int:
    result = run_overhead(fig6_scenario(seed=args.seed or 600))
    print(render_overhead(result.dashboard), file=out)
    print(
        f"\nhourly CV of (actual + est. savings): {result.total_without_keebo_stability():.3f}",
        file=out,
    )
    return 0


def _cmd_fig7(args: argparse.Namespace, out: IO[str]) -> int:
    rows = run_slider_sweep(seed=args.seed or 700)
    print(f"{'slider':>7} {'label':>17} {'credits':>9} {'avg lat':>8} {'p99':>8}", file=out)
    for row in rows:
        print(
            f"{int(row.slider):>7} {row.slider.label:>17} {row.total_credits:>9.1f} "
            f"{row.avg_latency:>7.2f}s {row.p99_latency:>7.1f}s",
            file=out,
        )
    return 0


def _cmd_onboarding(args: argparse.Namespace, out: IO[str]) -> int:
    curve = run_onboarding_curve(
        onboarding_scenario(seed=args.seed or 800, total_days=args.days)
    )
    print("hours  trailing-24h savings rate", file=out)
    for h, s in zip(curve.hours, curve.savings_rate):
        print(f"{h:>5.0f}  {s:>7.1%}", file=out)
    for fraction in (0.5, 0.7, 0.95):
        print(f"hours to {fraction:.0%} of eventual: {curve.hours_to_reach(fraction)}", file=out)
    return 0


def _cmd_fleet(args: argparse.Namespace, out: IO[str]) -> int:
    stream = StreamConfig(dir=args.stream_dir) if args.stream_dir else None
    result = run_fleet(
        fleet_scenarios(n_customers=args.customers, seed=args.seed or 900),
        workers=args.workers,
        stream=stream,
    )
    for row in result.rows:
        print(
            f"{row.scenario:>28}  savings {row.savings_fraction:>6.1%}  "
            f"p99 change {row.p99_change_fraction():>+6.1%}",
            file=out,
        )
    lo, hi = result.savings_range
    print(f"\nsavings range: {lo:.1%} .. {hi:.1%}", file=out)
    return 0


def _cmd_list(args: argparse.Namespace, out: IO[str]) -> int:
    for name, *_ in EXPERIMENTS:
        print(name, file=out)
    return 0


_SEED = flag("--seed", type=int, default=None, help="override the scenario seed")

#: The experiment commands: each row takes only the flags its handler reads.
EXPERIMENTS = (
    ("fig4a", functools.partial(_cmd_fig4, fig4a_scenario), "run the fig4a protocol", _SEED),
    ("fig4b", functools.partial(_cmd_fig4, fig4b_scenario), "run the fig4b protocol", _SEED),
    ("fig5", _cmd_fig5, "run the fig5 protocol", _SEED),
    ("fig6", _cmd_fig6, "run the fig6 protocol", _SEED),
    ("fig7", _cmd_fig7, "run the fig7 protocol", _SEED),
    (
        "fleet", _cmd_fleet, "run the fleet protocol",
        _SEED,
        flag("--customers", type=int, default=6, help="fleet size"),
        flag(
            "--workers", type=int, default=0,
            help="worker processes (0 = in-process; results are identical "
            "either way, docs/PERFORMANCE.md)",
        ),
        flag(
            "--stream-dir", default=None, dest="stream_dir",
            help="stream worker observability through this directory in bounded "
            "chunks with heartbeats (docs/OBSERVABILITY.md §v4)",
        ),
    ),
    (
        "onboarding", _cmd_onboarding, "run the onboarding protocol",
        _SEED,
        flag("--days", type=int, default=12, help="simulated days"),
    ),
)

#: Every ``repro.cli`` command; a family's rows live in its own module.
COMMANDS = (
    *EXPERIMENTS,
    ("list", _cmd_list, "enumerate the experiments"),
    (
        "lint", lint_cli.run,
        "run the determinism & invariant linter (docs/INVARIANTS.md)",
        *lint_cli.FLAGS,
    ),
    ("obs", obs_cli.COMMANDS, "inspect observability traces (docs/OBSERVABILITY.md)"),
    (
        "faults", faults_cli.COMMANDS,
        "run chaos scenarios under fault injection (docs/ROBUSTNESS.md)",
    ),
    (
        "durability", durability_cli.COMMANDS,
        "checkpoint/restore/verify control-plane state (docs/ROBUSTNESS.md)",
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the paper's experiments (SIGMOD-Companion '23 Keebo KWO).",
    )
    add_commands(parser.add_subparsers(dest="command", required=True), COMMANDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    return run_command(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
