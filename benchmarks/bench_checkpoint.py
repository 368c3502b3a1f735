"""Durability overhead: checkpoint/restore cost next to the run it protects.

ISSUE 9's tentpole adds cadenced checkpoints to the control plane; this
bench records what that durability costs and what a restore buys:

* **checkpoint overhead** — the same smoke scenario runs with and without
  checkpoints enabled; the delta is the journal's all-in cost (state
  capture, framing, fsync), reported per checkpoint;
* **restore latency** — one crash + restore at the final boundary, timed
  alone: the pause a recovering control plane actually takes, with no
  retraining and no vendor calls;
* **artifact size** — snapshot, journal and log-segment bytes at end of
  run, the durable footprint per warehouse.

All wall-clock numbers are recorded, not gated (machine-dependent); the
deterministic claim — restored state equals pre-crash state — is asserted
here as well, so the bench doubles as an end-to-end smoke of the
recovery path at whatever scale it runs.
"""

import timeit

from repro.core.optimizer import KeeboService
from repro.durability.checkpoint import CheckpointStore
from repro.experiments.scenarios import smoke_scenario

from benchmarks.conftest import record_result, run_once

CADENCE_SECONDS = 2 * 3600.0


def _run_smoke(checkpoint_dir=None):
    """The CLI `durability checkpoint` drive, returning (service, manifest)."""
    scenario = smoke_scenario()
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
    if checkpoint_dir is not None:
        service.enable_checkpoints(
            checkpoint_dir, CADENCE_SECONDS, config_hash=manifest.config_hash
        )
    account.run_until(scenario.horizon)
    return scenario, manifest, service


def test_checkpoint_overhead_and_restore(benchmark, tmp_path):
    directory = tmp_path / "ckpt"

    def protocol():
        plain_seconds = timeit.default_timer()
        _run_smoke()
        plain_seconds = timeit.default_timer() - plain_seconds

        durable_seconds = timeit.default_timer()
        scenario, manifest, service = _run_smoke(directory)
        durable_seconds = timeit.default_timer() - durable_seconds

        # Crash/restore at the end of the run, timed alone.
        service.checkpoint()
        before = service._capture_state()
        service.crash()
        restore_seconds = timeit.default_timer()
        service.restore(
            directory,
            slider=scenario.slider,
            constraints=scenario.constraints,
            optimizer_config=scenario.optimizer_config,
            config_hash=manifest.config_hash,
        )
        restore_seconds = timeit.default_timer() - restore_seconds
        assert service._capture_state() == before  # the deterministic claim

        store = CheckpointStore(directory)
        report = store.verify()
        assert report["ok"], report["errors"]
        checkpoints = report["snapshot_seq"] + report["journal_entries"] + 1
        return {
            "seconds_plain_run": round(plain_seconds, 4),
            "seconds_durable_run": round(durable_seconds, 4),
            "seconds_restore": round(restore_seconds, 4),
            "checkpoints_taken": checkpoints,
            "overhead_ms_per_checkpoint": round(
                max(0.0, durable_seconds - plain_seconds) * 1000.0 / checkpoints, 3
            ),
            "snapshot_bytes": store.snapshot_path.stat().st_size,
            "journal_bytes": store.journal_path.stat().st_size,
            "segment_bytes": store.segment_path.stat().st_size,
        }

    data = run_once(benchmark, protocol)
    lines = [f"{key:>28}: {value}" for key, value in data.items()]
    record_result("checkpoint_overhead", "\n".join(lines), data=data)
