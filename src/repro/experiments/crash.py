"""The crash-recovery harness: prove crash → restore → continue ≡ no crash.

The durability layer's headline invariant (docs/ROBUSTNESS.md §v2) is
*byte-identity*: for any seeded scenario and any crash point, a run that
dies at a checkpoint tick, restores from its durable artifacts and runs to
the horizon must export the **same bytes** — ledger, provenance,
attribution, metrics, series, open alerts, fleet-store rows, and the trace
itself — as the same-seed run that never crashed.  The only permitted
divergence is the single ``service.restore`` trace event the recovery
emits.

:func:`run_with_recovery` runs that experiment end to end:

1. build the scenario **twice** from its registered factory (live
   scenarios are single-use — their heaps and RNG streams advance);
2. drive the *reference* copy to the horizon with checkpoints enabled and
   the same process fault plan armed.  The reference executes the
   identical checkpoint-tick code — fault evaluation, RNG draws,
   corruption hooks against its own throwaway store — and simply declines
   to die (:meth:`KeeboService.consume_pending_crash` without teardown),
   so every stream stays draw-for-draw aligned with the crash run;
3. drive the *crash* copy the same way, but on a pending crash tear the
   control plane down (:meth:`KeeboService.crash`) and restore it from
   the checkpoint directory;
4. finish both with the §7.1 before/after tail and byte-compare every
   export.

The corruption kinds split by contract: ``crash_at_tick`` restores
strictly (``repair=False``); ``torn_write`` needs ``repair=True`` (the
torn half-line is exactly the residue a crash mid-append leaves) and
still satisfies byte-identity; ``truncated_journal`` and
``stale_snapshot`` are *detection* kinds — acknowledged state is gone or
inconsistent, so the only correct behaviour is a typed
:class:`~repro.common.errors.RecoveryError`, which the harness records
as ``recovered=False`` with the error message in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.common.errors import RecoveryError
from repro.common.simtime import Window
from repro.common.stable_json import canonical_json, dumps_json
from repro.core.optimizer import CHECKPOINT_OFFSET_SECONDS, WarehouseOptimizer
from repro.experiments.runner import BeforeAfterResult, before_after_result, onboard
from repro.experiments.scenarios import Scenario
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.plan import PROCESS_KINDS
from repro.obs import trace as obs
from repro.obs.provenance import encode_record
from repro.obs.store import FleetStore

#: Slack added when driving the sim up to a checkpoint boundary.
_BOUNDARY_EPSILON = 1e-6

#: The exports the invariant quantifies over, in report order.
EXPORT_NAMES = (
    "ledger",
    "provenance",
    "attribution",
    "store",
    "trace",
    "metrics",
    "series",
    "alerts",
)

#: Kinds whose corruption is detectable-but-unrecoverable by design:
#: restore must raise RecoveryError rather than resurrect partial state.
DETECTION_KINDS = frozenset({FaultKind.TRUNCATED_JOURNAL, FaultKind.STALE_SNAPSHOT})


def crash_plan(
    kind: FaultKind, crash_boundary: int, cadence_seconds: float, keebo_start: float
) -> FaultPlan:
    """A process plan firing ``kind`` at the Nth checkpoint tick (1-based).

    The spec's window brackets exactly one durability-controller fire
    time, so the fault triggers deterministically at that tick and the
    plan stays valid for both the reference and the crash run.
    """
    if kind not in PROCESS_KINDS:
        raise ValueError(f"{kind.value} is not a process-level fault kind")
    if crash_boundary < 1:
        raise ValueError("crash_boundary is 1-based: the first checkpoint tick is 1")
    fire = keebo_start + crash_boundary * cadence_seconds + CHECKPOINT_OFFSET_SECONDS
    return FaultPlan(
        name=f"crash[{kind.value}@{crash_boundary}]",
        specs=(
            FaultSpec(
                kind,
                operation="process",
                window=Window(fire - 0.5, fire + 0.5),
                detail=f"checkpoint boundary {crash_boundary}",
            ),
        ),
    )


@dataclass
class RecoveryRunResult:
    """One crash-recovery experiment: what happened and whether bytes match."""

    scenario: str
    seed: int
    kind: str
    cadence_seconds: float
    crash_boundary: int
    #: Crash/restore cycles actually executed in the crash run.
    crashes: int
    #: Did the crash run reach the horizon with a working control plane?
    recovered: bool
    #: The RecoveryError message when restore (correctly) refused.
    recovery_error: str
    #: Export name -> byte-equality with the uninterrupted run.
    identical: dict[str, bool]
    #: ``service.restore`` events observed in the crash run's trace.
    restore_events: int
    #: Journal repairs reported by restore (torn-tail truncations).
    repairs: int
    result: BeforeAfterResult | None = field(default=None, repr=False)

    @property
    def byte_identical(self) -> bool:
        return bool(self.identical) and all(self.identical.values())

    @property
    def ok(self) -> bool:
        """The kind-specific pass criterion.

        Detection kinds pass by *refusing* to restore; the others pass by
        recovering into a byte-identical continuation.
        """
        if FaultKind(self.kind) in DETECTION_KINDS:
            return not self.recovered and bool(self.recovery_error)
        return self.recovered and self.byte_identical

    def report(self) -> dict:
        """The recovery report (CI artifact; rendered with dumps_json)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "kind": self.kind,
            "cadence_seconds": self.cadence_seconds,
            "crash_boundary": self.crash_boundary,
            "crashes": self.crashes,
            "recovered": self.recovered,
            "recovery_error": self.recovery_error,
            "identical": dict(sorted(self.identical.items())),
            "byte_identical": self.byte_identical,
            "restore_events": self.restore_events,
            "repairs": self.repairs,
            "ok": self.ok,
        }

    def summary_lines(self) -> list[str]:
        verdict = "OK" if self.ok else "FAIL"
        lines = [
            f"recovery run {self.scenario!r} seed={self.seed} "
            f"{self.kind}@boundary {self.crash_boundary}: {verdict}",
            f"  crashes={self.crashes} recovered={self.recovered} "
            f"repairs={self.repairs} restore_events={self.restore_events}",
        ]
        if self.recovery_error:
            lines.append(f"  recovery_error: {self.recovery_error}")
        if self.identical:
            mismatched = sorted(k for k, v in self.identical.items() if not v)
            lines.append(
                "  exports: all byte-identical"
                if not mismatched
                else f"  exports differing: {', '.join(mismatched)}"
            )
        return lines


def _collect_exports(
    rec, optimizer: WarehouseOptimizer, *, drop_restore_events: bool
) -> dict[str, str]:
    """Every byte-compared artifact of one finished run, keyed by name.

    ``drop_restore_events`` filters the crash run's ``service.restore``
    lines out of the trace export — the one divergence the invariant
    allows (the fleet store never ingests them, so its rows need no
    filtering).
    """
    trace = rec.sink.to_jsonl()
    if drop_restore_events:
        trace = "".join(
            line + "\n"
            for line in trace.splitlines()
            if json.loads(line).get("name") != "service.restore"
        )
    store = FleetStore()
    store.ingest_trace_records(rec.sink.records, run="recovery")
    ledger = optimizer.ledger
    provenance = optimizer.provenance
    return {
        "ledger": dumps_json([ledger.encode_entry(e) for e in ledger.entries]),
        "provenance": dumps_json([encode_record(r) for r in provenance.records]),
        "attribution": dumps_json(
            [
                provenance.attribution.encode_entry(e)
                for e in provenance.attribution.entries
            ]
        ),
        "store": store.to_jsonl(),
        "trace": trace,
        "metrics": rec.metrics.to_json(),
        "series": rec.series.to_json(),
        # Alert events ride in the trace; only an open alert's re-fires do not.
        "alerts": canonical_json(
            [[a.name, a.severity, a.fired_at, a.refires] for a in rec.alerts.active()]
        ),
    }


def _drive(
    scenario: Scenario,
    directory,
    cadence_seconds: float,
    plan: FaultPlan,
    *,
    act_on_crash: bool,
    repair: bool,
):
    """One full run with checkpoints enabled; returns (exports, result, ...).

    The run is :func:`~repro.experiments.runner.run_before_after`'s §7.1
    protocol (its :func:`~repro.experiments.runner.onboard` and
    :func:`~repro.experiments.runner.before_after_result`) with
    checkpoints and segmented ``run_until`` calls in between.  Both the reference and the crash run go through this driver with the
    same segmented ``run_until`` boundaries, so their event dispatch,
    checkpoint ticks, and fault-plan RNG draws are identical call for
    call; only the reaction to a pending crash differs.
    """
    manifest = scenario.manifest()
    config_hash = manifest.config_hash
    with obs.observed(manifest=manifest) as rec:
        service, _ = onboard(scenario)
        account = scenario.account
        service.enable_checkpoints(
            directory,
            cadence_seconds,
            config_hash=config_hash,
            process_plan=plan,
        )
        crashes = 0
        repairs = 0
        boundary = scenario.keebo_start + cadence_seconds + CHECKPOINT_OFFSET_SECONDS
        while boundary < scenario.horizon:
            account.run_until(boundary + _BOUNDARY_EPSILON)
            kind = service.consume_pending_crash()
            if kind is not None and act_on_crash:
                crashes += 1
                service.crash()
                load = service.restore(
                    directory,
                    slider=scenario.slider,
                    constraints=scenario.constraints,
                    optimizer_config=scenario.optimizer_config,
                    config_hash=config_hash,
                    process_plan=plan,
                    repair=repair,
                )
                repairs += len(load.repairs)
            boundary += cadence_seconds
        account.run_until(scenario.horizon)
        # A restore replaces the optimizer: finish with the live one.
        optimizer = service.optimizer(scenario.warehouse)
        result = before_after_result(scenario, optimizer, manifest)
        exports = _collect_exports(rec, optimizer, drop_restore_events=act_on_crash)
        restore_events = sum(
            1
            for record in rec.sink.records
            if record["type"] == "event" and record["name"] == "service.restore"
        )
    return exports, result, crashes, repairs, restore_events


def run_with_recovery(
    build_scenario,
    *,
    kind: FaultKind = FaultKind.CRASH_AT_TICK,
    crash_boundary: int = 3,
    cadence_seconds: float = 2 * 3600.0,
    reference_dir=None,
    crash_dir=None,
) -> RecoveryRunResult:
    """Run one crash-recovery experiment and byte-compare the two runs.

    ``build_scenario`` is a zero-argument callable returning a *fresh*
    :class:`Scenario` on every call (a bound factory, not a live
    scenario — live scenarios are single-use).  ``reference_dir`` and
    ``crash_dir`` are the two checkpoint directories; temporary ones are
    created when omitted.
    """
    import tempfile

    probe = build_scenario()
    if probe.keebo_start is None:
        raise ValueError("crash-recovery needs a scenario with a keebo_day")
    plan = crash_plan(kind, crash_boundary, cadence_seconds, probe.keebo_start)
    repair = kind is FaultKind.TORN_WRITE

    with tempfile.TemporaryDirectory() as scratch:
        ref_dir = reference_dir if reference_dir is not None else f"{scratch}/reference"
        bad_dir = crash_dir if crash_dir is not None else f"{scratch}/crash"
        ref_exports, _, _, _, _ = _drive(
            probe, ref_dir, cadence_seconds, plan, act_on_crash=False, repair=False
        )
        crashed = build_scenario()
        recovery_error = ""
        try:
            exports, result, crashes, repairs, restore_events = _drive(
                crashed, bad_dir, cadence_seconds, plan, act_on_crash=True, repair=repair
            )
            identical = {
                name: ref_exports[name] == exports[name] for name in EXPORT_NAMES
            }
            recovered = True
        except RecoveryError as exc:
            recovery_error = str(exc)
            exports, result = None, None
            crashes, repairs, restore_events = 1, 0, 0
            identical = {}
            recovered = False

    return RecoveryRunResult(
        scenario=probe.name,
        seed=probe.account.rngs.seed,
        kind=kind.value,
        cadence_seconds=cadence_seconds,
        crash_boundary=crash_boundary,
        crashes=crashes,
        recovered=recovered,
        recovery_error=recovery_error,
        identical=identical,
        restore_events=restore_events,
        repairs=repairs,
        result=result,
    )
