"""``repro.cli durability``: unusable input exits 2, corruption exits 1."""

from repro.cli import main
from repro.durability.checkpoint import CheckpointStore


class TestDurabilityCli:
    def test_checkpoint_unknown_scenario_exits_two(self, tmp_path, capsys):
        assert main(["durability", "checkpoint", "nope", "--dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown scenario factory 'nope'\n"

    def test_verify_truncated_journal_exits_one(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.initialize(account="acme", config_hash="cfg-1", cadence_seconds=3600.0)
        store.write_snapshot(seq=0, time=0.0, state={"optimizers": {}})
        store.append({"seq": 1, "kind": "delta", "time": 1.0})
        directory = str(tmp_path / "ckpt")
        assert main(["durability", "verify", "--dir", directory]) == 0
        journal = store.journal_path.read_bytes()
        store.journal_path.write_bytes(journal[:-5])
        assert main(["durability", "verify", "--dir", directory]) == 1
