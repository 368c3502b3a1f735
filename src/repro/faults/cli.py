"""Command-line tools over the fault-injection layer.

Invocations (via the main CLI)::

    python -m repro.cli faults list                      # chaos scenario registry
    python -m repro.cli faults describe chaos_smoke      # render the fault plan
    python -m repro.cli faults run chaos_smoke           # run it; summarize faults
    python -m repro.cli faults run chaos_smoke --trace chaos.jsonl

``run`` drives the chaos protocol (``run_chaos``) and prints the
injected-vs-observed reconciliation: what the plan fired at the client
surface versus what the control loop absorbed (actuator errors/retries,
breaker opens, degraded snapshots, SAFE_MODE episodes).  With ``--trace``
it records the run and writes the same trace + sidecar set as ``obs
smoke``, so ``obs diff``/``obs alerts`` work on chaos runs — CI runs the
same seed twice and asserts the exports are byte-identical.

A chaos run that injects nothing is a rotted plan, not a passing test:
``run`` exits 1 on it (exit codes: docs/OBSERVABILITY.md §Exit codes).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from repro.common.cli import flag


def _builder(args: argparse.Namespace):
    """The named chaos scenario's zero-argument builder; ValueError when unknown."""
    from repro.experiments.scenarios import CHAOS_SCENARIOS, bound_factory

    return bound_factory(CHAOS_SCENARIOS, args.scenario, args.seed, "chaos scenario")


def list_scenarios(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments.scenarios import CHAOS_SCENARIOS

    for name in sorted(CHAOS_SCENARIOS):
        scenario = CHAOS_SCENARIOS[name]()
        doc = (CHAOS_SCENARIOS[name].__doc__ or "").strip().splitlines()[0]
        print(
            f"{name:<20} {len(scenario.fault_plan)} spec(s), "
            f"{scenario.total_days} day(s)  {doc}",
            file=out,
        )
    return 0


def describe(args: argparse.Namespace, out: IO[str]) -> int:
    scenario = _builder(args)()
    print(
        f"scenario {scenario.name!r}: {scenario.total_days} day(s), "
        f"keebo_day={scenario.keebo_day}, "
        f"seed={scenario.account.rngs.seed}",
        file=out,
    )
    print(scenario.fault_plan.describe(), file=out)
    return 0


def run_scenario(args: argparse.Namespace, out: IO[str]) -> int:
    # Imported here: `faults list/describe` stay usable without pulling in
    # the full experiments stack.
    from repro import obs
    from repro.experiments.crash import run_with_recovery
    from repro.experiments.runner import run_chaos
    from repro.faults.plan import FaultKind

    build = _builder(args)
    if args.crash_at is not None:
        # Client faults and a control-plane death in the same run; the
        # crash harness's byte-identity check is the pass criterion.
        recovery = run_with_recovery(
            build,
            kind=FaultKind.CRASH_AT_TICK,
            crash_boundary=args.crash_at,
            crash_dir=args.checkpoint_dir,
        )
        for line in recovery.summary_lines():
            print(line, file=out)
        if args.checkpoint_dir is not None:
            print(f"checkpoint artifacts: {args.checkpoint_dir}", file=out)
        return 0 if recovery.ok else 1
    scenario = build()
    if args.trace is not None:
        with obs.observed(manifest=scenario.manifest()) as rec:
            chaos, _ = run_chaos(scenario)
        trace_path = rec.dump(args.trace)
        print(f"trace: {trace_path} ({len(rec.sink)} records)", file=out)
    else:
        chaos, _ = run_chaos(scenario)
    for line in chaos.summary_lines():
        print(line, file=out)
    if chaos.injected_total == 0:
        print(
            "error: fault plan injected nothing (rotted windows or "
            "probabilities?)",
            file=sys.stderr,
        )
        return 1
    return 0


_SCENARIO = flag("scenario", help="chaos scenario name (see `faults list`)")
_SEED = flag("--seed", type=int, default=None, help="scenario seed")

#: The ``faults`` family: one row per subcommand (repro.common.cli).
COMMANDS = (
    ("list", list_scenarios, "list the registered chaos scenarios"),
    ("describe", describe, "render a scenario's fault plan", _SCENARIO, _SEED),
    (
        "run", run_scenario, "run a chaos scenario; reconcile fault counts",
        _SCENARIO,
        _SEED,
        flag(
            "--trace", default=None,
            help="record the run: trace JSONL here, sidecars at <trace>.metrics.json "
            "and <trace>.series.json (same layout as obs smoke)",
        ),
        flag(
            "--crash-at", type=int, default=None, dest="crash_at",
            help="also kill the control plane at this 1-based checkpoint boundary "
            "and restore it (crash-recovery chaos; see `durability smoke`)",
        ),
        flag(
            "--checkpoint-dir", default=None, dest="checkpoint_dir",
            help="with --crash-at: keep the crash run's checkpoint artifacts here",
        ),
    ),
)
