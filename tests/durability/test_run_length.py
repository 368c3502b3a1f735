"""Durable state linear in run length: each sealed entry is encoded once.

Runs the ``flaky_api`` scenario (faults on the write path, live ledger on,
a checkpoint every decision tick) for D and 2D simulated days of KWO and
counts, per checkpoint, the log entries its encoders turn into JSON.  A
service that re-encoded its whole history at every checkpoint would show
per-delta and per-snapshot counts that double with the run; these counts
are deterministic, so the gate holds at smoke scale.
"""

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.common.simtime import DAY
from repro.core import optimizer as optimizer_module
from repro.core.actuator import Actuator
from repro.core.ledger import LiveLedger, SavingsLedger
from repro.core.optimizer import KeeboService
from repro.durability.checkpoint import CheckpointStore
from repro.common.stable_json import canonical_json
from repro.experiments.scenarios import flaky_api_scenario
from repro.faults import FaultingWarehouseClient
from repro.learning.agent import DQNAgent
from repro.obs.provenance import AttributionLedger

D = 1  # simulated days of KWO in the short run; the long run has 2D


class EncodeCounter:
    """Wraps the six log encoders; remembers what each call encoded."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, object, bool]] = []
        for owner, attr, name in (
            (Actuator, "encode_log_entry", "actuator"),
            (AttributionLedger, "encode_entry", "attribution"),
            (SavingsLedger, "encode_entry", "ledger"),
            (LiveLedger, "encode_reconciliation", "reconciliations"),
        ):
            monkeypatch.setattr(owner, attr, staticmethod(self._wrap(getattr(owner, attr), name)))
        for attr, name in (("encode_decision", "decisions"), ("encode_record", "provenance")):
            monkeypatch.setattr(
                optimizer_module, attr, self._wrap(getattr(optimizer_module, attr), name)
            )

    def _wrap(self, encode, name):
        def counted(entry):
            # A provenance record is final once sealed; anything else once appended.
            self.calls.append((name, entry, getattr(entry, "sealed", True)))
            return encode(entry)

        return counted


def run(tmp_path, monkeypatch, days: int):
    scenario = flaky_api_scenario()
    scenario.total_days = 1 + days  # KWO starts at the end of day one
    assert scenario.horizon <= 3 * DAY  # inside the plan's fault windows
    plan = scenario.fault_plan
    scenario.schedule()
    account = scenario.account
    account.run_until(scenario.keebo_start)
    service = KeeboService(
        account, client_factory=lambda acct: FaultingWarehouseClient(acct, plan)
    )
    optimizer = service.onboard_warehouse(
        scenario.warehouse,
        slider=scenario.slider,
        constraints=scenario.constraints,
        config=scenario.optimizer_config,
    )
    counter = EncodeCounter(monkeypatch)
    per_checkpoint: list[tuple[str, int]] = []
    snapshots: list[dict] = []
    agent_encodes = []
    checkpoint = KeeboService.checkpoint
    write_snapshot = CheckpointStore.write_snapshot
    agent_state_dict = DQNAgent.state_dict

    def counted_agent_state_dict(self):
        agent_encodes.append((self.train_steps, self.env_steps))
        return agent_state_dict(self)

    def counted_checkpoint(self, force_snapshot=False):
        before = len(counter.calls)
        kind = checkpoint(self, force_snapshot)
        per_checkpoint.append((kind, len(counter.calls) - before))
        return kind

    def inspected_write_snapshot(self, **kwargs):
        write_snapshot(self, **kwargs)
        (line,) = self.snapshot_path.read_text().splitlines()
        snapshots.append(
            {
                "line": line,
                "agent": canonical_json(agent_state_dict(optimizer.agent)),
                "steps": (optimizer.agent.train_steps, optimizer.agent.env_steps),
            }
        )

    monkeypatch.setattr(KeeboService, "checkpoint", counted_checkpoint)
    monkeypatch.setattr(CheckpointStore, "write_snapshot", inspected_write_snapshot)
    monkeypatch.setattr(DQNAgent, "state_dict", counted_agent_state_dict)
    service.enable_checkpoints(
        tmp_path / f"ckpt-{days}", scenario.optimizer_config.decision_interval
    )
    account.run_until(scenario.horizon)
    service.checkpoint(force_snapshot=True)  # seal everything the run logged
    optimizer.shutdown()
    monkeypatch.undo()
    return SimpleNamespace(
        optimizer=optimizer,
        calls=counter.calls,
        per_checkpoint=per_checkpoint,
        snapshots=snapshots,
        agent_encodes=agent_encodes,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for days in (D, 2 * D):
        with pytest.MonkeyPatch.context() as monkeypatch:
            out[days] = run(tmp_path_factory.mktemp(f"run{days}"), monkeypatch, days)
    return out


@pytest.mark.parametrize("days", [D, 2 * D])
def test_every_sealed_entry_is_encoded_exactly_once(runs, days):
    optimizer, calls = runs[days].optimizer, runs[days].calls
    finals = Counter((name, id(entry)) for name, entry, final in calls if final)
    for name, log in optimizer.logs().items():
        if name != "provenance":
            assert log.sealed == len(log.entries)
        counts = [finals[(name, id(entry))] for entry in log.entries[: log.sealed]]
        assert counts and counts == [1] * log.sealed, f"{name}: {Counter(counts)}"
    # Besides the final encodings, only open provenance records are encoded
    # again, and each of those is open for a tick or two.
    reencoded = Counter(name for name, _, final in calls if not final)
    assert set(reencoded) <= {"provenance"}
    assert reencoded["provenance"] <= 2 * len(optimizer.provenance.records)


def test_log_entries_encoded_per_checkpoint_stay_flat(runs):
    """Twice the history, the same work per checkpoint.  (Encoding the
    whole actuator log per delta, as the journal once did, doubles the
    actuator share of the mean from D to 2D.)"""
    short, long = runs[D].per_checkpoint, runs[2 * D].per_checkpoint
    for kind in ("delta", "snapshot"):
        per_short = [n for k, n in short if k == kind]
        per_long = [n for k, n in long if k == kind]
        assert len(per_long) > 1.5 * len(per_short) > 0
        mean_short = sum(per_short) / len(per_short)
        mean_long = sum(per_long) / len(per_long)
        assert mean_long <= 1.25 * mean_short, (kind, mean_short, mean_long)


@pytest.mark.parametrize("days", [D, 2 * D])
def test_snapshots_hold_no_sealed_entry_and_reuse_exact_agent_text(runs, days):
    result, optimizer = runs[days], runs[days].optimizer
    assert len(result.snapshots) == sum(1 for kind, _ in result.per_checkpoint if kind == "snapshot")
    for snapshot in result.snapshots:
        line = snapshot["line"]
        wrapper = json.loads(line)
        assert canonical_json(wrapper) == line  # the assembled text is canonical
        state = wrapper["state"]["optimizers"][optimizer.warehouse]
        assert canonical_json(state["agent"]) == snapshot["agent"]
        segment = wrapper["segment"]["logs"]
        for name, tail in state["logs"].items():
            held = segment.get(f"{optimizer.warehouse}/{name}", {"count": 0})["count"]
            assert tail["from"] == held
            if name == "provenance":
                assert not any(record["sealed"] for record in tail["entries"])
            else:
                assert tail["entries"] == []
    # The agent was encoded once per model version it was snapshotted at:
    # compaction-only snapshots (the journal filled up, nothing retrained)
    # reused the previous text.
    assert result.agent_encodes == list(dict.fromkeys(s["steps"] for s in result.snapshots))
    assert len(result.agent_encodes) < len(result.snapshots)
