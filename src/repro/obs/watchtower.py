"""The fleet watchtower: cross-run anomaly detection over a FleetStore.

KEA-style continuous fleet tuning (PAPERS.md) lives or dies on noticing
when a fleet *stops* earning its savings — a regression in attributed
credits, an alert storm on one run, or what-if calibration quietly
drifting away from realized outcomes.  The watchtower turns a
:class:`repro.obs.store.FleetStore` into exactly those checks:

* **savings regression** — each warehouse's attributed savings credits
  compared against a blessed fleet baseline (``fleet_baseline``), with a
  relative tolerance;
* **alert storms** — any ``(run, alert)`` whose fire count reaches the
  storm threshold;
* **calibration drift** — per-warehouse mean absolute what-if error
  growing past its baselined value by more than the drift tolerance.

Everything is a pure function of the store (plus the baseline dict), so
reports are byte-stable through ``repro.common.stable_json.dumps_json`` and a
same-seed fleet produces the identical report every run — which is what
lets CI gate on it (``repro.cli obs watchtower``, nonzero exit on any
error-severity finding).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.common.errors import ObservabilityError
from repro.obs.store import FleetStore

#: Bumped on any incompatible change to baseline / report shapes.
WATCHTOWER_SCHEMA_VERSION = 1

#: Findings at this severity flip the report to not-ok (exit 1 in the CLI).
ERROR = "error"
#: Informational findings (new warehouses, …); never fail the gate.
NOTE = "note"


@dataclass(frozen=True)
class WatchtowerThresholds:
    """Tunable anomaly thresholds (CLI flags map 1:1 onto these)."""

    #: Allowed relative drop in attributed credits vs baseline.
    savings_drop_tolerance: float = 0.05
    #: Fires of one alert within one run at which a storm is declared.
    alert_storm_fires: int = 8
    #: Allowed relative growth of mean |what-if error| vs baseline.
    calibration_drift_tolerance: float = 0.25
    #: Absolute slack (credits) added to the drift bound so near-zero
    #: baselines don't flag on float dust.
    calibration_floor_credits: float = 0.005


#: The per-warehouse facts a baseline pins (FleetStore.warehouse_facts keys).
_FACT_KEYS = (
    "attributed_credits",
    "n_decisions",
    "n_sealed",
    "n_with_prediction",
    "mean_abs_error_credits",
    "mean_error_credits",
)


def fleet_facts(store: FleetStore) -> dict:
    """The per-warehouse facts the watchtower compares across runs.

    Warehouses with empty names (manifest rows) are excluded; keys are
    name-sorted so the dict serializes byte-stably.
    """
    warehouses = {
        name: {key: facts[key] for key in _FACT_KEYS}
        for name, facts in store.warehouse_facts().items()
        if name
    }
    alert_max_fires: dict[str, int] = {}
    for (_, alert), fires in store.alert_fire_counts().items():
        alert_max_fires[alert] = max(alert_max_fires.get(alert, 0), fires)
    return {
        "schema": WATCHTOWER_SCHEMA_VERSION,
        "runs": len(store.runs()),
        "warehouses": warehouses,
        "alert_max_fires": {
            name: alert_max_fires[name] for name in sorted(alert_max_fires)
        },
    }


def fleet_baseline(store: FleetStore) -> dict:
    """The blessable baseline: the current store's facts, verbatim.

    Committed next to the bench baselines and handed back to
    :func:`run_watchtower` as the reference a future fleet must not
    regress from.
    """
    return fleet_facts(store)


def load_baseline(path: str | pathlib.Path) -> dict:
    """Read a blessed baseline file; ObservabilityError naming the file
    unless it has the shape :func:`run_watchtower` compares against."""
    try:
        baseline = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ObservabilityError(f"unreadable baseline {path}: {exc}") from exc
    warehouses = baseline.get("warehouses", {}) if isinstance(baseline, dict) else None
    if not isinstance(warehouses, dict) or not all(
        isinstance(facts, dict)
        and all(
            isinstance(facts.get(key, 0.0), (int, float))
            for key in ("attributed_credits", "mean_abs_error_credits")
        )
        for facts in warehouses.values()
    ):
        raise ObservabilityError(f"{path}: not a watchtower baseline")
    return baseline


def run_watchtower(
    store: FleetStore,
    baseline: dict | None = None,
    thresholds: WatchtowerThresholds = WatchtowerThresholds(),
) -> dict:
    """Run every anomaly check; return the byte-stable report dict.

    ``report["ok"]`` is False iff any finding carries error severity.
    Without a baseline only the absolute checks (alert storms) run — the
    regression and drift checks need a reference fleet.
    """
    current = fleet_facts(store)
    findings: list[dict] = []

    for (run, alert), fires in sorted(store.alert_fire_counts().items()):
        if fires >= thresholds.alert_storm_fires:
            findings.append(
                {
                    "kind": "alert_storm",
                    "severity": ERROR,
                    "subject": f"{run}:{alert}",
                    "fires": fires,
                    "threshold": thresholds.alert_storm_fires,
                    "message": (
                        f"alert {alert!r} fired {fires}x in run {run!r} "
                        f"(storm threshold {thresholds.alert_storm_fires})"
                    ),
                }
            )

    if baseline is not None:
        base_warehouses = baseline.get("warehouses", {})
        for name in sorted(base_warehouses):
            base = base_warehouses[name]
            now = current["warehouses"].get(name)
            if now is None:
                findings.append(
                    {
                        "kind": "missing_warehouse",
                        "severity": ERROR,
                        "subject": name,
                        "message": (
                            f"warehouse {name!r} is in the baseline but "
                            "absent from the store"
                        ),
                    }
                )
                continue
            base_credits = float(base.get("attributed_credits", 0.0))
            slack = max(
                abs(base_credits) * thresholds.savings_drop_tolerance, 1e-9
            )
            if now["attributed_credits"] < base_credits - slack:
                findings.append(
                    {
                        "kind": "savings_regression",
                        "severity": ERROR,
                        "subject": name,
                        "baseline_credits": base_credits,
                        "current_credits": now["attributed_credits"],
                        "tolerance": thresholds.savings_drop_tolerance,
                        "message": (
                            f"warehouse {name!r} attributed "
                            f"{now['attributed_credits']:.6f}cr vs baseline "
                            f"{base_credits:.6f}cr "
                            f"(tolerance {thresholds.savings_drop_tolerance:.0%})"
                        ),
                    }
                )
            base_error = float(base.get("mean_abs_error_credits", 0.0))
            allowed = (
                base_error * (1.0 + thresholds.calibration_drift_tolerance)
                + thresholds.calibration_floor_credits
            )
            if now["mean_abs_error_credits"] > allowed:
                findings.append(
                    {
                        "kind": "calibration_drift",
                        "severity": ERROR,
                        "subject": name,
                        "baseline_mean_abs_error_credits": base_error,
                        "current_mean_abs_error_credits": now[
                            "mean_abs_error_credits"
                        ],
                        "allowed_mean_abs_error_credits": allowed,
                        "message": (
                            f"warehouse {name!r} mean |what-if error| "
                            f"{now['mean_abs_error_credits']:.6f}cr exceeds "
                            f"the drifted bound {allowed:.6f}cr "
                            f"(baseline {base_error:.6f}cr)"
                        ),
                    }
                )
        for name in sorted(set(current["warehouses"]) - set(base_warehouses)):
            findings.append(
                {
                    "kind": "new_warehouse",
                    "severity": NOTE,
                    "subject": name,
                    "message": (
                        f"warehouse {name!r} is new since the baseline "
                        "(re-bless to start tracking it)"
                    ),
                }
            )

    return {
        "schema": WATCHTOWER_SCHEMA_VERSION,
        "ok": not any(f["severity"] == ERROR for f in findings),
        "store": {
            "rows": len(store),
            "runs": store.runs(),
            "warehouses": store.warehouses(),
        },
        "thresholds": {
            "savings_drop_tolerance": thresholds.savings_drop_tolerance,
            "alert_storm_fires": thresholds.alert_storm_fires,
            "calibration_drift_tolerance": thresholds.calibration_drift_tolerance,
            "calibration_floor_credits": thresholds.calibration_floor_credits,
        },
        "baseline_runs": None if baseline is None else baseline.get("runs"),
        "current": current,
        "findings": findings,
    }


def render_text(report: dict) -> str:
    """The terminal rendering of a watchtower report (deterministic)."""
    store = report["store"]
    lines = [
        f"watchtower: {store['rows']} rows, {len(store['runs'])} run(s), "
        f"{len(store['warehouses'])} warehouse(s)"
        + (
            ""
            if report["baseline_runs"] is None
            else f", baseline over {report['baseline_runs']} run(s)"
        ),
    ]
    for name, facts in report["current"]["warehouses"].items():
        lines.append(
            f"  {name:<14} attributed={facts['attributed_credits']:>+12.6f}cr  "
            f"decisions={facts['n_decisions']:<5} sealed={facts['n_sealed']:<5} "
            f"mean |err|={facts['mean_abs_error_credits']:.5f}cr"
        )
    errors = [f for f in report["findings"] if f["severity"] == ERROR]
    notes = [f for f in report["findings"] if f["severity"] != ERROR]
    for finding in errors:
        lines.append(f"  [{finding['kind']}] {finding['message']}")
    for finding in notes:
        lines.append(f"  (note) [{finding['kind']}] {finding['message']}")
    verdict = "OK" if report["ok"] else "REGRESSION"
    lines.append(
        f"verdict: {verdict} ({len(errors)} error finding(s), "
        f"{len(notes)} note(s))"
    )
    return "\n".join(lines)
