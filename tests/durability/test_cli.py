"""``repro.cli durability``: unusable input exits 2, corruption exits 1."""

import json

from repro.cli import main
from repro.durability.checkpoint import CheckpointStore


class TestDurabilityCli:
    def test_checkpoint_unknown_scenario_exits_two(self, tmp_path, capsys):
        assert main(["durability", "checkpoint", "nope", "--dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown scenario factory 'nope'\n"

    def test_verify_truncated_journal_exits_one(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.initialize(account="acme", config_hash="cfg-1", cadence_seconds=3600.0)
        store.write_snapshot(seq=0, time=0.0, state_text='{"optimizers":{}}', sealed={})
        store.append({"seq": 1, "kind": "delta", "time": 1.0}, {})
        directory = str(tmp_path / "ckpt")
        assert main(["durability", "verify", "--dir", directory]) == 0
        journal = store.journal_path.read_bytes()
        store.journal_path.write_bytes(journal[:-5])
        assert main(["durability", "verify", "--dir", directory]) == 1

    def test_verify_and_restore_report_the_segment(self, tmp_path, capsys):
        directory = str(tmp_path / "ckpt")
        assert main(["durability", "checkpoint", "smoke", "--dir", directory]) == 0
        capsys.readouterr()
        assert main(["durability", "verify", "--dir", directory]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["segment_frames"] >= 1
        assert report["segment_entries"] > 0
        assert report["segment_residue_bytes"] == 0
        assert main(["durability", "restore", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert (
            f"segment: {report['segment_frames']} frame(s), "
            f"{report['segment_entries']} sealed entr(ies), 0 residue byte(s)"
        ) in out

    def test_segment_truncated_inside_its_prefix_exits_one(self, tmp_path, capsys):
        directory = str(tmp_path / "ckpt")
        assert main(["durability", "checkpoint", "smoke", "--dir", directory]) == 0
        segment = CheckpointStore(directory).segment_path
        segment.write_bytes(segment.read_bytes()[:-5])
        assert main(["durability", "verify", "--dir", directory]) == 1
        assert main(["durability", "restore", "--dir", directory]) == 1
        assert "below the" in capsys.readouterr().err
