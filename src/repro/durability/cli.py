"""Command-line tools over the durability layer.

Invocations (via the main CLI)::

    python -m repro.cli durability checkpoint smoke --dir ck/   # run + journal
    python -m repro.cli durability restore --dir ck/            # dry-run restore
    python -m repro.cli durability verify --dir ck/             # artifact audit
    python -m repro.cli durability smoke [--kind torn_write]    # crash-recovery run

``checkpoint`` runs a scenario with checkpoints enabled and leaves the
durable artifacts (MANIFEST.json, segment.jsonl, snapshot.json,
journal.jsonl) behind for inspection.  ``restore`` performs a *dry-run*
recovery: it loads the artifacts, replays the journal over the snapshot
and puts the sealed log entries back in front of each log's tail exactly
as a live restore would, and reports what state would come back —
without needing the simulated world the checkpoint was taken in.
``verify`` audits the artifacts without replaying.  Both report the
segment's frame and entry counts.  ``smoke`` runs the full
crash-recovery experiment
(:func:`repro.experiments.crash.run_with_recovery`) and writes the
recovery report; CI's ``crash-recovery-smoke`` job is this command.

Corruption or a violated invariant exits 1 (exit codes:
docs/OBSERVABILITY.md §Exit codes).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from repro.common.cli import flag
from repro.common.errors import RecoveryError
from repro.common.stable_json import dumps_json
from repro.durability.checkpoint import CheckpointStore


def _builder(args: argparse.Namespace):
    """The named scenario factory's zero-argument builder; ValueError when unknown."""
    from repro.experiments.scenarios import SCENARIO_FACTORIES, bound_factory

    return bound_factory(SCENARIO_FACTORIES, args.scenario, args.seed, "scenario factory")


def checkpoint(args: argparse.Namespace, out: IO[str]) -> int:
    # Imported here: verify/restore stay usable without the experiments stack.
    from repro.core.optimizer import KeeboService

    scenario = _builder(args)()
    if scenario.keebo_start is None:
        raise ValueError(f"scenario {args.scenario!r} never enables the optimizer")
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
        args.dir, args.cadence, config_hash=manifest.config_hash
    )
    account.run_until(scenario.horizon)
    service.optimizer(scenario.warehouse).shutdown()
    report = CheckpointStore(args.dir).verify()
    print(
        f"checkpointed {args.scenario!r} (seed={account.rngs.seed}) to {args.dir}: "
        f"snapshot seq {report['snapshot_seq']}, "
        f"{report['journal_entries']} journal entr(ies), "
        f"{report['segment_frames']} segment frame(s)",
        file=out,
    )
    return 0


def restore(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.core.optimizer import merge_checkpoint_entries

    store = CheckpointStore(args.dir)
    try:
        load = store.load(repair=args.repair)
        state = merge_checkpoint_entries(load.state, load.entries, load.sealed)
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"restorable: {args.dir}", file=out)
    print(
        f"  snapshot seq {load.snapshot['seq']} at t={load.snapshot['time']:g}, "
        f"{len(load.entries)} delta entr(ies), {len(load.repairs)} repair(s)",
        file=out,
    )
    print(
        f"  segment: {load.snapshot['segment']['frames']} frame(s), "
        f"{load.segment_entries} sealed entr(ies), "
        f"{load.residue_bytes} residue byte(s)",
        file=out,
    )
    for warehouse in sorted(state["optimizers"]):
        opt = state["optimizers"][warehouse]
        counts = {name: len(log["entries"]) for name, log in opt["logs"].items()}
        print(
            f"  {warehouse}: {counts['ledger']} ledger entr(ies), "
            f"{counts['decisions']} decision(s), "
            f"{counts['actuator']} actuation(s), "
            f"next tick t={opt['controller_next_fire']:g}",
            file=out,
        )
    for line in load.repairs:
        print(f"  repaired: {line}", file=out)
    return 0


def verify(args: argparse.Namespace, out: IO[str]) -> int:
    report = CheckpointStore(args.dir).verify()
    print(dumps_json(report), end="", file=out)
    return 0 if report["ok"] else 1


def smoke(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments.crash import run_with_recovery
    from repro.faults import FaultKind

    result = run_with_recovery(
        _builder(args),
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


_SEED = flag("--seed", type=int, default=None, help="scenario seed")

#: The ``durability`` family: one row per subcommand (repro.common.cli).
COMMANDS = (
    (
        "checkpoint", checkpoint, "run a scenario with checkpoints; keep the artifacts",
        flag("scenario", help="scenario factory name (e.g. smoke, chaos_smoke)"),
        flag("--dir", required=True, help="checkpoint directory to write"),
        _SEED,
        flag(
            "--cadence", type=float, default=2 * 3600.0,
            help="checkpoint cadence in sim seconds (default 7200)",
        ),
    ),
    (
        "restore", restore, "dry-run recovery: replay the journal, report the state",
        flag("--dir", required=True, help="checkpoint directory to read"),
        flag(
            "--repair", action="store_true",
            help="truncate a torn journal tail instead of failing on it",
        ),
    ),
    (
        "verify", verify, "audit checkpoint artifacts for corruption",
        flag("--dir", required=True, help="checkpoint directory to audit"),
    ),
    (
        "smoke", smoke, "full crash-recovery experiment with byte-compare",
        flag("--scenario", default="smoke", help="scenario factory name (default smoke)"),
        _SEED,
        flag(
            "--kind", default="crash_at_tick",
            choices=["crash_at_tick", "torn_write", "truncated_journal", "stale_snapshot"],
            help="process fault kind to inject",
        ),
        flag(
            "--crash-at", type=int, default=3, dest="crash_at",
            help="1-based checkpoint boundary at which the fault fires",
        ),
        flag("--cadence", type=float, default=2 * 3600.0, help="checkpoint cadence (sim s)"),
        flag("--report", default=None, help="write the recovery report (JSON) here"),
    ),
)
