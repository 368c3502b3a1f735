"""Command-line tools over the durability layer.

Invocations (via the main CLI)::

    python -m repro.cli durability checkpoint smoke --dir ck/   # run + journal
    python -m repro.cli durability restore --dir ck/            # dry-run restore
    python -m repro.cli durability verify --dir ck/             # artifact audit
    python -m repro.cli durability smoke [--kind torn_write]    # crash-recovery run

``checkpoint`` runs a scenario with checkpoints enabled and leaves the
durable artifacts (MANIFEST.json, snapshot.json, journal.jsonl) behind for
inspection.  ``restore`` performs a *dry-run* recovery: it loads the
artifacts, replays the journal over the snapshot exactly as a live restore
would, and reports what state would come back — without needing the
simulated world the checkpoint was taken in.  ``verify`` audits the
artifacts without replaying.  ``smoke`` runs the full crash-recovery
experiment (:func:`repro.experiments.crash.run_with_recovery`) and writes
the recovery report; CI's ``crash-recovery-smoke`` job is this command.

Exit codes: 0 ok; 1 corruption detected / invariant violated; 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from repro.common.errors import RecoveryError
from repro.common.stable_json import dumps_json
from repro.durability.checkpoint import CheckpointStore


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``durability`` subcommand family."""
    sub = parser.add_subparsers(dest="durability_command", required=True)

    ck = sub.add_parser(
        "checkpoint", help="run a scenario with checkpoints; keep the artifacts"
    )
    ck.add_argument("scenario", help="scenario factory name (e.g. smoke, chaos_smoke)")
    ck.add_argument("--dir", required=True, help="checkpoint directory to write")
    ck.add_argument("--seed", type=int, default=None, help="scenario seed")
    ck.add_argument(
        "--cadence",
        type=float,
        default=2 * 3600.0,
        help="checkpoint cadence in sim seconds (default 7200)",
    )

    restore = sub.add_parser(
        "restore", help="dry-run recovery: replay the journal, report the state"
    )
    restore.add_argument("--dir", required=True, help="checkpoint directory to read")
    restore.add_argument(
        "--repair",
        action="store_true",
        help="truncate a torn journal tail instead of failing on it",
    )

    verify = sub.add_parser("verify", help="audit checkpoint artifacts for corruption")
    verify.add_argument("--dir", required=True, help="checkpoint directory to audit")

    smoke = sub.add_parser(
        "smoke", help="full crash-recovery experiment with byte-compare"
    )
    smoke.add_argument(
        "--scenario", default="smoke", help="scenario factory name (default smoke)"
    )
    smoke.add_argument("--seed", type=int, default=None, help="scenario seed")
    smoke.add_argument(
        "--kind",
        default="crash_at_tick",
        choices=["crash_at_tick", "torn_write", "truncated_journal", "stale_snapshot"],
        help="process fault kind to inject",
    )
    smoke.add_argument(
        "--crash-at",
        type=int,
        default=3,
        dest="crash_at",
        help="1-based checkpoint boundary at which the fault fires",
    )
    smoke.add_argument(
        "--cadence", type=float, default=2 * 3600.0, help="checkpoint cadence (sim s)"
    )
    smoke.add_argument(
        "--report", default=None, help="write the recovery report (JSON) here"
    )


def _scenario_builder(name: str, seed: int | None):
    """A zero-argument builder for a registered scenario factory, or None."""
    import functools

    from repro.experiments.scenarios import SCENARIO_FACTORIES

    factory = SCENARIO_FACTORIES.get(name)
    if factory is None:
        return None
    return factory if seed is None else functools.partial(factory, seed=seed)


def checkpoint(
    name: str, seed: int | None, directory: str, cadence: float, out: IO[str]
) -> int:
    # Imported here: verify/restore stay usable without the experiments stack.
    from repro.core.optimizer import KeeboService

    build = _scenario_builder(name, seed)
    if build is None:
        print(f"error: unknown scenario factory {name!r}", file=sys.stderr)
        return 2
    scenario = build()
    if scenario.keebo_start is None:
        print(f"error: scenario {name!r} never enables the optimizer", file=sys.stderr)
        return 2
    manifest = scenario.manifest()
    scenario.schedule()
    account = scenario.account
    account.run_until(scenario.keebo_start)
    service = KeeboService(account)
    service.onboard_warehouse(
        scenario.warehouse,
        slider=scenario.slider,
        constraints=scenario.constraints,
        config=scenario.optimizer_config,
    )
    service.enable_checkpoints(
        directory, cadence, config_hash=manifest.config_hash
    )
    account.run_until(scenario.horizon)
    service.optimizer(scenario.warehouse).shutdown()
    report = CheckpointStore(directory).verify()
    print(
        f"checkpointed {name!r} (seed={account.rngs.seed}) to {directory}: "
        f"snapshot seq {report['snapshot_seq']}, "
        f"{report['journal_entries']} journal entr(ies)",
        file=out,
    )
    return 0


def restore(directory: str, repair: bool, out: IO[str]) -> int:
    from repro.core.optimizer import merge_checkpoint_entries

    store = CheckpointStore(directory)
    try:
        load = store.load(repair=repair)
        state = merge_checkpoint_entries(load.state, load.entries)
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"restorable: {directory}", file=out)
    print(
        f"  snapshot seq {load.snapshot['seq']} at t={load.snapshot['time']:g}, "
        f"{len(load.entries)} delta entr(ies), {len(load.repairs)} repair(s)",
        file=out,
    )
    for warehouse in sorted(state["optimizers"]):
        opt = state["optimizers"][warehouse]
        print(
            f"  {warehouse}: {len(opt['ledger'])} ledger entr(ies), "
            f"{len(opt['decisions'])} decision(s), "
            f"{len(opt['actuator']['log'])} actuation(s), "
            f"next tick t={opt['controller_next_fire']:g}",
            file=out,
        )
    for line in load.repairs:
        print(f"  repaired: {line}", file=out)
    return 0


def verify(directory: str, out: IO[str]) -> int:
    report = CheckpointStore(directory).verify()
    print(dumps_json(report), end="", file=out)
    return 0 if report["ok"] else 1


def smoke(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments.crash import run_with_recovery
    from repro.faults import FaultKind

    build = _scenario_builder(args.scenario, args.seed)
    if build is None:
        print(f"error: unknown scenario factory {args.scenario!r}", file=sys.stderr)
        return 2
    result = run_with_recovery(
        build,
        kind=FaultKind(args.kind),
        crash_boundary=args.crash_at,
        cadence_seconds=args.cadence,
    )
    for line in result.summary_lines():
        print(line, file=out)
    if args.report is not None:
        from repro.durability.io import atomic_write_text
        from repro.portal.reports import render_recovery

        atomic_write_text(args.report, dumps_json(result.report()))
        atomic_write_text(args.report + ".md", render_recovery(result.report()))
        print(f"report: {args.report} (+ {args.report}.md)", file=out)
    return 0 if result.ok else 1


def run(args: argparse.Namespace, out: IO[str] | None = None) -> int:
    """Execute a parsed ``durability`` invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    if args.durability_command == "checkpoint":
        return checkpoint(args.scenario, args.seed, args.dir, args.cadence, out)
    if args.durability_command == "restore":
        return restore(args.dir, args.repair, out)
    if args.durability_command == "verify":
        return verify(args.dir, out)
    return smoke(args, out)
