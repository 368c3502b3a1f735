"""``costmodel stream``: the incremental ledger's stream-and-verify smoke."""

from repro.cli import main


class TestStream:
    def test_stream_matches_full_replay_bit_for_bit(self, capsys):
        assert main(["costmodel", "stream", "--rows", "200"]) == 0
        text = capsys.readouterr().out
        assert "divergence=0.0" in text
        assert "FAIL" not in text
