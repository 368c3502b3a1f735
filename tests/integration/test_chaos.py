"""End-to-end chaos runs: the acceptance criteria of docs/ROBUSTNESS.md.

A chaos scenario with ambient API failures plus a telemetry blackout must
(1) complete without an unhandled exception, (2) enter and exit SAFE_MODE
visibly (alert.fire / alert.resolve in the trace), (3) land within the
documented savings tolerance of the fault-free run, and (4) be byte-
identical when repeated under the same seed.
"""

import pytest

from repro import obs
from repro.experiments.runner import run_before_after, run_chaos
from repro.experiments.scenarios import (
    CHAOS_SCENARIOS,
    chaos_smoke_scenario,
    flaky_api_scenario,
    smoke_scenario,
    telemetry_blackout_scenario,
)

#: Maximum |savings delta| vs the fault-free twin (docs/ROBUSTNESS.md).
SAVINGS_TOLERANCE = 0.25


def traced_chaos(builder):
    scenario = builder()
    with obs.observed(manifest=scenario.manifest()) as rec:
        chaos, optimizer = run_chaos(scenario)
    return chaos, optimizer, rec


class TestChaosSmoke:
    def test_completes_and_the_loop_reacts(self):
        chaos, optimizer, _ = traced_chaos(chaos_smoke_scenario)
        # The plan fired: ambient API errors plus the telemetry blackout.
        assert chaos.injected.get("api_error", 0) > 0
        assert chaos.injected.get("telemetry_gap", 0) > 0
        assert chaos.injected_total == sum(chaos.injected.values())
        # The control loop noticed and absorbed them.
        assert chaos.observed["telemetry_failures"] > 0
        assert chaos.observed["safe_mode_entries"] >= 1
        assert chaos.observed["safe_mode_ticks"] >= chaos.observed["safe_mode_entries"]
        assert not optimizer.safe_mode  # recovered by the end of the run

    def test_safe_mode_alert_fires_and_resolves(self):
        chaos, optimizer, rec = traced_chaos(chaos_smoke_scenario)
        name = f"optimizer.safe_mode.{optimizer.warehouse.lower()}"
        lifecycle = [
            r
            for r in rec.sink.records
            if r.get("type") == "event"
            and r.get("name") in ("alert.fire", "alert.resolve")
            and r["attrs"].get("alert") == name
        ]
        assert lifecycle, "SAFE_MODE never surfaced as an alert"
        assert lifecycle[0]["name"] == "alert.fire"
        assert lifecycle[-1]["name"] == "alert.resolve"
        assert not rec.alerts.is_active(name)

    def test_savings_within_tolerance_of_fault_free_run(self):
        chaos, _, _ = traced_chaos(chaos_smoke_scenario)
        fault_free, _ = run_before_after(smoke_scenario(seed=131))
        delta = chaos.savings_fraction - fault_free.savings_fraction
        assert abs(delta) <= SAVINGS_TOLERANCE

    def test_repeated_seed_is_byte_identical(self, tmp_path):
        for run in ("a", "b"):
            _, _, rec = traced_chaos(chaos_smoke_scenario)
            rec.sink.dump(tmp_path / f"{run}.jsonl")
            (tmp_path / f"{run}.metrics.json").write_text(rec.metrics.to_json())
            (tmp_path / f"{run}.series.json").write_text(rec.series.to_json())
        for suffix in (".jsonl", ".metrics.json", ".series.json"):
            a = (tmp_path / f"a{suffix}").read_bytes()
            b = (tmp_path / f"b{suffix}").read_bytes()
            assert a == b, f"{suffix} diverged across same-seed chaos runs"


class TestOtherChaosScenarios:
    def test_flaky_api_exercises_the_hardened_write_path(self):
        chaos, optimizer, _ = traced_chaos(flaky_api_scenario)
        assert chaos.injected_total > 0
        assert chaos.observed["actuator_errors"] > 0
        # Telemetry stays healthy, so flakiness alone must not trip SAFE_MODE.
        assert chaos.observed["telemetry_failures"] == 0
        assert not optimizer.safe_mode

    def test_telemetry_blackout_rides_through_safe_mode(self):
        chaos, optimizer, _ = traced_chaos(telemetry_blackout_scenario)
        assert chaos.observed["safe_mode_entries"] >= 1
        assert chaos.observed["telemetry_failures"] > 0
        assert not optimizer.safe_mode

    def test_registry_lists_every_builder(self):
        assert set(CHAOS_SCENARIOS) == {
            "chaos_smoke",
            "flaky_api",
            "telemetry_blackout",
        }

    def test_run_chaos_requires_a_fault_plan(self):
        with pytest.raises(ValueError):
            run_chaos(smoke_scenario())
