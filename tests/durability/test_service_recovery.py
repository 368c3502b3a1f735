"""Service-level restore semantics: all-or-nothing, config-guarded, exact.

The byte-identity of a full recovered *run* is property-tested in
``tests/props/test_durability_props.py``; these tests pin the restore
contract itself on a live service mid-scenario.
"""

import pytest

from repro.common.errors import ConfigurationError, RecoveryError
from repro.core.optimizer import KeeboService, WarehouseOptimizer
from repro.durability.checkpoint import CheckpointStore
from repro.experiments.scenarios import smoke_scenario

CADENCE = 3600.0


def checkpointed_service(directory):
    """Run the smoke scenario a few checkpoint boundaries past onboarding."""
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
    service.enable_checkpoints(directory, CADENCE, config_hash=manifest.config_hash)
    account.run_until(scenario.keebo_start + 4 * CADENCE + 300.0)
    return scenario, manifest, service


class TestRestoreRoundtrip:
    def test_state_identical_after_crash_restore(self, tmp_path):
        scenario, manifest, service = checkpointed_service(tmp_path / "ckpt")
        service.checkpoint()  # capture the exact moment we crash at
        before = service._capture_state()
        service.crash()
        assert service.optimizers == {}
        service.restore(
            tmp_path / "ckpt",
            slider=scenario.slider,
            constraints=scenario.constraints,
            optimizer_config=scenario.optimizer_config,
            config_hash=manifest.config_hash,
        )
        assert service._capture_state() == before

    def test_live_ledger_survives_crash_restore_byte_identically(self, tmp_path):
        """The streaming ledger's state re-feeds from telemetry on restore
        and must round-trip byte-identically (checksum-verified), with the
        open period's projection answering exactly as before the crash."""
        scenario, manifest, service = checkpointed_service(tmp_path / "ckpt")
        optimizer = service.optimizer(scenario.warehouse)
        assert optimizer.live_ledger is not None
        original = optimizer.action_space.original
        projected_before = optimizer.live_ledger.projection(original).credits
        service.checkpoint()
        before = service._capture_state()
        assert before["optimizers"][scenario.warehouse]["live_ledger"] is not None
        service.crash()
        service.restore(
            tmp_path / "ckpt",
            slider=scenario.slider,
            constraints=scenario.constraints,
            optimizer_config=scenario.optimizer_config,
            config_hash=manifest.config_hash,
        )
        assert service._capture_state() == before
        restored = service.optimizer(scenario.warehouse).live_ledger
        assert restored.projection(original).credits == projected_before

    @pytest.mark.parametrize("drop", [False, True], ids=["null", "missing"])
    def test_checkpoint_without_live_ledger_state_refused(self, tmp_path, monkeypatch, drop):
        """A snapshot whose optimizer state carries no live ledger (``null``
        or no key at all) is refused with a typed error naming the
        warehouse, and the restore leaves the service empty."""
        scenario, manifest, service = checkpointed_service(tmp_path / "ckpt")
        delta_state = WarehouseOptimizer.delta_state

        def without_live_ledger(self, marks):
            state, sealed = delta_state(self, marks)
            if drop:
                del state["live_ledger"]
            else:
                state["live_ledger"] = None
            return state, sealed

        monkeypatch.setattr(WarehouseOptimizer, "delta_state", without_live_ledger)
        service.checkpoint(force_snapshot=True)
        service.crash()
        with pytest.raises(RecoveryError, match=scenario.warehouse):
            service.restore(
                tmp_path / "ckpt",
                slider=scenario.slider,
                constraints=scenario.constraints,
                optimizer_config=scenario.optimizer_config,
                config_hash=manifest.config_hash,
            )
        assert service.optimizers == {}

    def test_restore_refuses_live_service(self, tmp_path):
        _, _, service = checkpointed_service(tmp_path / "ckpt")
        with pytest.raises(ConfigurationError, match="live service"):
            service.restore(tmp_path / "ckpt")

    def test_config_hash_mismatch_refused(self, tmp_path):
        scenario, _, service = checkpointed_service(tmp_path / "ckpt")
        service.crash()
        with pytest.raises(RecoveryError, match="config_hash"):
            service.restore(
                tmp_path / "ckpt",
                slider=scenario.slider,
                optimizer_config=scenario.optimizer_config,
                config_hash="a-different-deployment",
            )


class TestAllOrNothing:
    def test_corrupt_journal_leaves_service_empty(self, tmp_path):
        scenario, manifest, service = checkpointed_service(tmp_path / "ckpt")
        service.crash()
        store = CheckpointStore(tmp_path / "ckpt")
        store.inject_truncated_journal()
        with pytest.raises(RecoveryError):
            service.restore(
                tmp_path / "ckpt",
                slider=scenario.slider,
                optimizer_config=scenario.optimizer_config,
                config_hash=manifest.config_hash,
            )
        assert service.optimizers == {}

    def test_torn_tail_needs_explicit_repair(self, tmp_path):
        scenario, manifest, service = checkpointed_service(tmp_path / "ckpt")
        service.crash()
        CheckpointStore(tmp_path / "ckpt").inject_torn_write()
        kwargs = dict(
            slider=scenario.slider,
            optimizer_config=scenario.optimizer_config,
            config_hash=manifest.config_hash,
        )
        with pytest.raises(RecoveryError, match="torn journal tail"):
            service.restore(tmp_path / "ckpt", **kwargs)
        assert service.optimizers == {}
        load = service.restore(tmp_path / "ckpt", repair=True, **kwargs)
        assert len(load.repairs) == 1
        assert scenario.warehouse in service.optimizers

    def test_stale_snapshot_always_refused(self, tmp_path):
        scenario, manifest, service = checkpointed_service(tmp_path / "ckpt")
        service.crash()
        CheckpointStore(tmp_path / "ckpt").inject_stale_snapshot()
        with pytest.raises(RecoveryError, match="stale snapshot"):
            service.restore(
                tmp_path / "ckpt",
                slider=scenario.slider,
                optimizer_config=scenario.optimizer_config,
                config_hash=manifest.config_hash,
                repair=True,
            )
        assert service.optimizers == {}
