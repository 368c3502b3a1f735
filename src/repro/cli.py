"""Command-line entry point: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig4a [--seed 401]
    python -m repro.cli fig5
    python -m repro.cli fig6
    python -m repro.cli fig7
    python -m repro.cli onboarding [--days 12]
    python -m repro.cli fleet [--customers 6]
    python -m repro.cli lint [paths ...] [--format json|sarif] [--graph out.dot]
    python -m repro.cli obs {smoke,summarize,diff,profile,slo,alerts,report} ...
    python -m repro.cli faults {list,describe,run} ...
    python -m repro.cli durability {checkpoint,restore,verify,smoke} ...
    python -m repro.cli costmodel stream [--rows 400]

Each experiment command runs the corresponding §7 protocol and prints the
same rows/series the paper's figure reports (the benchmarks wrap these same
protocols with timing and assertions).  ``lint`` runs the determinism &
invariant checker (see docs/INVARIANTS.md); ``obs`` inspects trace files
from the observability layer (see docs/OBSERVABILITY.md); ``faults`` runs
the chaos scenarios of the fault-injection layer (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import argparse
import sys

import repro.costmodel.cli as costmodel_cli
import repro.durability.cli as durability_cli
import repro.faults.cli as faults_cli
import repro.lint.cli as lint_cli
import repro.obs.cli as obs_cli

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


def _cmd_fig4(args: argparse.Namespace) -> None:
    builder = fig4a_scenario if args.command == "fig4a" else fig4b_scenario
    result, _ = run_before_after(builder(seed=args.seed) if args.seed else builder())
    print(render_savings(result.dashboard))
    print(f"\np99 change: {result.p99_change_fraction():+.1%}")
    print(f"cost-model estimated savings: {result.estimated_savings_fraction:.1%}")


def _cmd_fig5(args: argparse.Namespace) -> None:
    rows = run_cost_model_accuracy(fig5_scenarios(seed=args.seed or 500))
    print(f"{'warehouse':>12} {'actual':>9} {'estimated':>10} {'rel.err':>8}")
    for row in rows:
        print(
            f"{row.warehouse:>12} {row.actual_credits:>9.2f} "
            f"{row.estimated_credits:>10.2f} {row.relative_error:>8.2%}"
        )


def _cmd_fig6(args: argparse.Namespace) -> None:
    result = run_overhead(fig6_scenario(seed=args.seed or 600))
    print(render_overhead(result.dashboard))
    print(f"\nhourly CV of (actual + est. savings): {result.total_without_keebo_stability():.3f}")


def _cmd_fig7(args: argparse.Namespace) -> None:
    rows = run_slider_sweep(seed=args.seed or 700)
    print(f"{'slider':>7} {'label':>17} {'credits':>9} {'avg lat':>8} {'p99':>8}")
    for row in rows:
        print(
            f"{int(row.slider):>7} {row.slider.label:>17} {row.total_credits:>9.1f} "
            f"{row.avg_latency:>7.2f}s {row.p99_latency:>7.1f}s"
        )


def _cmd_onboarding(args: argparse.Namespace) -> None:
    curve = run_onboarding_curve(
        onboarding_scenario(seed=args.seed or 800, total_days=args.days)
    )
    print("hours  trailing-24h savings rate")
    for h, s in zip(curve.hours, curve.savings_rate):
        print(f"{h:>5.0f}  {s:>7.1%}")
    for fraction in (0.5, 0.7, 0.95):
        print(f"hours to {fraction:.0%} of eventual: {curve.hours_to_reach(fraction)}")


def _cmd_fleet(args: argparse.Namespace) -> None:
    stream = StreamConfig(dir=args.stream_dir) if args.stream_dir else None
    result = run_fleet(
        fleet_scenarios(n_customers=args.customers, seed=args.seed or 900),
        workers=args.workers,
        stream=stream,
    )
    for row in result.rows:
        print(
            f"{row.scenario:>28}  savings {row.savings_fraction:>6.1%}  "
            f"p99 change {row.p99_change_fraction():>+6.1%}"
        )
    lo, hi = result.savings_range
    print(f"\nsavings range: {lo:.1%} .. {hi:.1%}")


_COMMANDS = {
    "fig4a": _cmd_fig4,
    "fig4b": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "onboarding": _cmd_onboarding,
    "fleet": _cmd_fleet,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the paper's experiments (SIGMOD-Companion '23 Keebo KWO).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS) + ["list"]:
        sub = subparsers.add_parser(
            name, help="enumerate the experiments" if name == "list" else f"run the {name} protocol"
        )
        sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        sub.add_argument("--days", type=int, default=12, help="horizon for 'onboarding'")
        sub.add_argument("--customers", type=int, default=6, help="fleet size for 'fleet'")
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help="worker processes for 'fleet' (0 = in-process; results are "
            "identical either way, docs/PERFORMANCE.md)",
        )
        sub.add_argument(
            "--stream-dir",
            default=None,
            dest="stream_dir",
            help="for 'fleet': stream worker observability through this "
            "directory in bounded chunks with heartbeats "
            "(docs/OBSERVABILITY.md §v4)",
        )
    lint = subparsers.add_parser(
        "lint", help="run the determinism & invariant linter (docs/INVARIANTS.md)"
    )
    lint_cli.configure_parser(lint)
    obs = subparsers.add_parser(
        "obs", help="inspect observability traces (docs/OBSERVABILITY.md)"
    )
    obs_cli.configure_parser(obs)
    faults = subparsers.add_parser(
        "faults", help="run chaos scenarios under fault injection (docs/ROBUSTNESS.md)"
    )
    faults_cli.configure_parser(faults)
    durability = subparsers.add_parser(
        "durability",
        help="checkpoint/restore/verify control-plane state (docs/ROBUSTNESS.md)",
    )
    durability_cli.configure_parser(durability)
    costmodel = subparsers.add_parser(
        "costmodel",
        help="smoke-drive the incremental what-if ledger (docs/PERFORMANCE.md)",
    )
    costmodel_cli.configure_parser(costmodel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(_COMMANDS):
            print(name)
        return 0
    if args.command == "lint":
        return lint_cli.run(args)
    if args.command == "obs":
        return obs_cli.run(args)
    if args.command == "faults":
        return faults_cli.run(args)
    if args.command == "durability":
        return durability_cli.run(args)
    if args.command == "costmodel":
        return costmodel_cli.run(args)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
