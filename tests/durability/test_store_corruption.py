"""The corrupted-artifact corpus: every damage pattern is a typed refusal.

Each test builds a healthy checkpoint directory, applies one corruption,
and asserts the store raises :class:`RecoveryError` (or repairs, in the
one case — a torn journal tail under ``repair=True`` — the contract
allows, or ignores, in the other — segment bytes past the prefix the
snapshot references).  There is no damage pattern that loads silently.
"""

import hashlib
import json

import pytest

from repro.common.errors import RecoveryError
from repro.durability.checkpoint import SCHEMA, CheckpointStore
from repro.common.stable_json import canonical_json
from repro.durability.io import frame_entry

SEALED = {"WH/decisions": [{"d": 0}, {"d": 1}], "WH/ledger": [{"l": 0}]}


def write_snapshot(store, seq, time, state, sealed=None):
    store.write_snapshot(
        seq=seq, time=time, state_text=canonical_json(state), sealed=sealed or {}
    )


def healthy_store(tmp_path, deltas: int = 3) -> CheckpointStore:
    store = CheckpointStore(tmp_path / "ckpt")
    store.initialize(account="acme", config_hash="cfg-1", cadence_seconds=3600.0)
    write_snapshot(store, 0, 0.0, {"optimizers": {"WH": {"x": 1}}}, SEALED)
    for i in range(1, deltas + 1):
        store.append({"seq": i, "kind": "delta", "time": float(i)}, {})
    return store


class TestHealthyLoad:
    def test_load_returns_snapshot_and_entries(self, tmp_path):
        store = healthy_store(tmp_path)
        load = store.load(expected_config_hash="cfg-1")
        assert load.snapshot["seq"] == 0
        assert [e["seq"] for e in load.entries] == [1, 2, 3]
        assert load.repairs == []
        assert load.state == {"optimizers": {"WH": {"x": 1}}}
        assert load.sealed == SEALED
        assert load.residue_bytes == 0

    def test_verify_ok(self, tmp_path):
        report = healthy_store(tmp_path).verify()
        assert report["ok"] is True
        assert report["snapshot_seq"] == 0
        assert report["journal_entries"] == 3
        assert report["segment_frames"] == 1
        assert report["segment_entries"] == 3
        assert report["segment_residue_bytes"] == 0
        assert report["errors"] == []

    def test_compaction_lagging_basis_is_benign(self, tmp_path):
        """Snapshot published, crash before the journal reset: entries the
        new snapshot already covers are discarded on load."""
        store = healthy_store(tmp_path)
        old_journal = store.journal_path.read_bytes()
        # Compaction writes the snapshot first...
        write_snapshot(store, 3, 3.0, {"optimizers": {"WH": {"x": 9}}})
        # ...and crashes before resetting the journal: put the old
        # basis(0) + deltas 1..3 back.
        store.journal_path.write_bytes(old_journal)
        load = store.load(expected_config_hash="cfg-1")
        assert load.snapshot["seq"] == 3
        assert load.entries == []  # deltas 1..3 overlapped; discarded


class TestManifestCorruption:
    def test_missing_manifest(self, tmp_path):
        store = healthy_store(tmp_path)
        store.manifest_path.unlink()
        with pytest.raises(RecoveryError, match="missing MANIFEST.json"):
            store.load()

    def test_manifest_not_json(self, tmp_path):
        store = healthy_store(tmp_path)
        store.manifest_path.write_text("{not json")
        with pytest.raises(RecoveryError, match="not valid JSON"):
            store.load()

    def test_manifest_wrong_schema(self, tmp_path):
        store = healthy_store(tmp_path)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["schema"] = "something/else"
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RecoveryError, match="schema"):
            store.load()

    def test_config_hash_mismatch(self, tmp_path):
        store = healthy_store(tmp_path)
        with pytest.raises(RecoveryError, match="config_hash"):
            store.load(expected_config_hash="other-deployment")


class TestSnapshotCorruption:
    def test_missing_snapshot(self, tmp_path):
        store = healthy_store(tmp_path)
        store.snapshot_path.unlink()
        with pytest.raises(RecoveryError, match="missing snapshot.json"):
            store.load()

    def test_empty_snapshot(self, tmp_path):
        store = healthy_store(tmp_path)
        store.snapshot_path.write_text("")
        with pytest.raises(RecoveryError, match="empty"):
            store.load()

    def test_snapshot_not_json(self, tmp_path):
        store = healthy_store(tmp_path)
        store.snapshot_path.write_text('{"schema": ')
        with pytest.raises(RecoveryError, match="not valid JSON"):
            store.load()

    def test_snapshot_state_bit_flip(self, tmp_path):
        """Edited state no longer matches the wrapper checksum."""
        store = healthy_store(tmp_path)
        wrapper = json.loads(store.snapshot_path.read_text())
        wrapper["state"]["optimizers"]["WH"]["x"] = 2
        store.snapshot_path.write_text(json.dumps(wrapper))
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            store.load()

    def test_snapshot_missing_key(self, tmp_path):
        store = healthy_store(tmp_path)
        wrapper = json.loads(store.snapshot_path.read_text())
        del wrapper["checksum"]
        store.snapshot_path.write_text(json.dumps(wrapper))
        with pytest.raises(RecoveryError, match="missing 'checksum'"):
            store.load()


class TestJournalCorruption:
    def test_empty_journal(self, tmp_path):
        store = healthy_store(tmp_path)
        store.journal_path.write_bytes(b"")
        with pytest.raises(RecoveryError, match="no basis entry"):
            store.load()

    def test_first_entry_not_basis(self, tmp_path):
        store = healthy_store(tmp_path)
        store.journal_path.unlink()
        store.append({"seq": 0, "kind": "delta"}, {})
        with pytest.raises(RecoveryError, match="basis"):
            store.load()

    def test_torn_tail_strict_refuses(self, tmp_path):
        store = healthy_store(tmp_path)
        store.inject_torn_write()
        with pytest.raises(RecoveryError, match="torn journal tail"):
            store.load(repair=False)

    def test_torn_tail_repair_recovers_and_records(self, tmp_path):
        store = healthy_store(tmp_path)
        store.inject_torn_write()
        load = store.load(repair=True)
        assert [e["seq"] for e in load.entries] == [1, 2, 3]
        assert len(load.repairs) == 1
        assert "torn journal tail" in load.repairs[0]

    def test_truncated_journal_refuses_even_with_repair_if_mid(self, tmp_path):
        """Dropping tail bytes tears the last line; strict mode refuses."""
        store = healthy_store(tmp_path)
        store.inject_truncated_journal()
        with pytest.raises(RecoveryError, match="torn journal tail"):
            store.load(repair=False)

    def test_stale_snapshot_always_fatal(self, tmp_path):
        store = healthy_store(tmp_path)
        store.inject_stale_snapshot()
        with pytest.raises(RecoveryError, match="stale snapshot"):
            store.load(repair=True)

    def test_basis_checksum_mismatch(self, tmp_path):
        store = healthy_store(tmp_path)
        store.journal_path.unlink()
        store.append({"seq": 0, "kind": "basis", "checksum": "deadbeef"}, {})
        with pytest.raises(RecoveryError, match="basis checksum"):
            store.load()

    def test_seq_gap_after_snapshot(self, tmp_path):
        store = healthy_store(tmp_path)
        store.append({"seq": 5, "kind": "delta"}, {})  # gap: expected 4
        with pytest.raises(RecoveryError):
            store.load()

    def test_verify_reports_corruption_without_raising(self, tmp_path):
        store = healthy_store(tmp_path)
        store.inject_truncated_journal()
        report = store.verify()
        assert report["ok"] is False
        assert report["errors"]
        assert "torn journal tail" in report["errors"][0]


class TestSchemaConstant:
    def test_artifacts_carry_schema(self, tmp_path):
        store = healthy_store(tmp_path)
        assert json.loads(store.manifest_path.read_text())["schema"] == SCHEMA
        assert json.loads(store.snapshot_path.read_text())["schema"] == SCHEMA

    def test_snapshot_is_canonical_compact_text(self, tmp_path):
        store = healthy_store(tmp_path)
        state = {"b": [1.5, {"z": None, "a": "é"}], "a": {"nested": True}}
        write_snapshot(store, 4, 12.25, state)
        text = store.snapshot_path.read_text()
        wrapper = json.loads(text)
        assert text == json.dumps(wrapper, sort_keys=True, separators=(",", ":")) + "\n"
        state_bytes = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        assert state_bytes in store.snapshot_path.read_bytes()
        # The checksum covers the whole wrapper but itself.
        del wrapper["checksum"]
        body = json.dumps(wrapper, sort_keys=True, separators=(",", ":")).encode()
        assert json.loads(text)["checksum"] == hashlib.sha256(body).hexdigest()
        assert wrapper["seq"] == 4 and wrapper["time"] == 12.25

    @pytest.mark.parametrize("artifact", ["manifest_path", "snapshot_path"])
    def test_schema_1_directory_refused(self, tmp_path, artifact):
        store = healthy_store(tmp_path)
        path = getattr(store, artifact)
        document = json.loads(path.read_text())
        document["schema"] = "repro.durability/1"
        path.write_text(json.dumps(document))
        with pytest.raises(RecoveryError, match="schema"):
            store.load()

    @pytest.mark.parametrize("artifact", ["manifest_path", "snapshot_path"])
    def test_schema_2_directory_refused(self, tmp_path, artifact):
        """A /2 directory kept every log whole in its snapshot; /3 reads
        sealed entries from the segment, so the two cannot mix."""
        store = healthy_store(tmp_path)
        path = getattr(store, artifact)
        document = json.loads(path.read_text())
        document["schema"] = "repro.durability/2"
        path.write_text(json.dumps(document))
        with pytest.raises(RecoveryError, match="schema"):
            store.load(repair=True)


class TestSegmentCorruption:
    @pytest.mark.parametrize("repair", [False, True])
    def test_bit_flip_inside_referenced_prefix(self, tmp_path, repair):
        store = healthy_store(tmp_path)
        data = bytearray(store.segment_path.read_bytes())
        at = data.index(b'"d":1') + 4
        data[at] ^= 0x01
        store.segment_path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="corruption in segment.jsonl"):
            store.load(repair=repair)

    @pytest.mark.parametrize("repair", [False, True])
    def test_truncated_below_the_snapshot_count(self, tmp_path, repair):
        store = healthy_store(tmp_path)
        data = store.segment_path.read_bytes()
        store.segment_path.write_bytes(data[:-5])
        with pytest.raises(RecoveryError, match="below the .*-byte prefix"):
            store.load(repair=repair)
        assert store.verify()["ok"] is False

    def test_missing_segment(self, tmp_path):
        store = healthy_store(tmp_path)
        store.segment_path.unlink()
        with pytest.raises(RecoveryError, match="segment.jsonl holds 0 bytes"):
            store.load()

    def test_frame_with_wrong_chained_checksum(self, tmp_path):
        """A well-framed frame (valid crc) whose chain does not follow
        from its batch is refused: the frame is not the one sealed."""
        store = healthy_store(tmp_path)
        frame = store.segment_path.read_bytes()
        payload = json.loads(frame.split(b" ", 2)[2])
        payload["chains"]["WH/ledger"] = "0" * 64
        forged = frame_entry(payload)
        assert len(forged) == len(frame)
        store.segment_path.write_bytes(forged)
        with pytest.raises(RecoveryError, match="chained checksum mismatch"):
            store.load(repair=True)

    def test_counts_must_match_the_snapshot(self, tmp_path):
        """A valid frame from another history (same length, own chain) is
        caught by the snapshot's per-log counts and chains."""
        store = healthy_store(tmp_path)
        other = CheckpointStore(tmp_path / "other")
        other.initialize(account="acme", config_hash="cfg-1", cadence_seconds=3600.0)
        write_snapshot(other, 0, 0.0, {}, {"WH/decisions": [{"d": 7}, {"d": 1}], "WH/ledger": [{"l": 0}]})
        store.segment_path.write_bytes(other.segment_path.read_bytes())
        with pytest.raises(RecoveryError, match="log counts and chains"):
            store.load()

    def test_bytes_past_the_prefix_are_benign_and_cut_at_next_compaction(self, tmp_path):
        """A compaction that crashed after its segment append and before its
        snapshot rename leaves a frame no snapshot references."""
        store = healthy_store(tmp_path)
        prefix = store.segment_path.read_bytes()
        snapshot, journal = store.snapshot_path.read_bytes(), store.journal_path.read_bytes()
        write_snapshot(store, 4, 4.0, {"optimizers": {}}, {"WH/decisions": [{"d": 2}]})
        store.snapshot_path.write_bytes(snapshot)  # the rename never happened
        store.journal_path.write_bytes(journal)
        residue = len(store.segment_path.read_bytes()) - len(prefix)
        assert residue > 0

        restarted = CheckpointStore(tmp_path / "ckpt")
        load = restarted.load()
        assert load.sealed == SEALED
        assert load.residue_bytes == residue
        assert restarted.verify()["segment_residue_bytes"] == residue

        write_snapshot(restarted, 4, 4.0, {"optimizers": {}}, {"WH/ledger": [{"l": 1}]})
        data = restarted.segment_path.read_bytes()
        assert data.startswith(prefix) and b'"d":2' not in data
        load = CheckpointStore(tmp_path / "ckpt").load()
        assert load.residue_bytes == 0
        assert load.sealed == {"WH/decisions": SEALED["WH/decisions"], "WH/ledger": [{"l": 0}, {"l": 1}]}
        assert load.snapshot["segment"]["frames"] == 2

    def test_refusal_leaves_a_torn_journal_tail_in_place(self, tmp_path):
        """A damaged segment refuses before the journal's torn-tail repair
        touches the directory."""
        store = healthy_store(tmp_path)
        store.inject_torn_write()
        journal = store.journal_path.read_bytes()
        store.segment_path.write_bytes(store.segment_path.read_bytes()[:-5])
        with pytest.raises(RecoveryError, match="below the"):
            store.load(repair=True)
        assert store.journal_path.read_bytes() == journal
