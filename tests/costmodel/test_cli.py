"""``costmodel stream``: the incremental ledger's stream-and-verify smoke."""

from repro.cli import main


class TestStream:
    def test_stream_matches_full_replay_bit_for_bit(self, capsys):
        assert main(["costmodel", "stream", "--rows", "200"]) == 0
        text = capsys.readouterr().out
        assert "divergence=0.0" in text
        assert "FAIL" not in text

    def test_stream_fails_on_drift_outside_divergence_fields(self, capsys, monkeypatch):
        """Divergence only measures credits, active and cluster seconds; a
        ledger that drifts in any other field must still fail the check."""
        import dataclasses

        from repro.costmodel.incremental import IncrementalReplay

        verify = IncrementalReplay.verify

        def drifting(self, config):
            inc, full, divergence = verify(self, config)
            return dataclasses.replace(inc, n_bursts=inc.n_bursts + 1), full, divergence

        monkeypatch.setattr(IncrementalReplay, "verify", drifting)
        assert main(["costmodel", "stream", "--rows", "200"]) == 1
        text = capsys.readouterr().out
        assert "divergence=0.0" in text
        assert "FAIL" in text
