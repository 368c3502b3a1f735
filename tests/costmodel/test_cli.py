"""``costmodel stream``: the incremental ledger's stream-and-verify smoke."""

import argparse
import io

from repro.costmodel.cli import configure_parser, run


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    configure_parser(parser)
    return parser.parse_args(argv)


class TestStream:
    def test_stream_matches_full_replay_bit_for_bit(self):
        out = io.StringIO()
        assert run(parse(["stream", "--rows", "200"]), out=out) == 0
        text = out.getvalue()
        assert "divergence=0.0" in text
        assert "FAIL" not in text
