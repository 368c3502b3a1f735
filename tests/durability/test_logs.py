"""The append-only log codec: sealed heads, open tails, per-part text."""

import json

import pytest

from repro.common.errors import RecoveryError
from repro.common.stable_json import canonical_json
from repro.durability.codec import AppendLog, canonical_object


def log_of(values, sealed):
    return AppendLog(list(values), lambda v: {"v": v}, lambda s: s["v"], sealed)


class TestCanonicalObject:
    @pytest.mark.parametrize(
        "value",
        [
            {},
            {"b": [1.5, None], "a": {"z": "é", "y": True}},
            {"key with \"quotes\"": 0.1, "ünïcode": -3, "": {}},
        ],
    )
    def test_equals_canonical_json_of_the_whole(self, value):
        parts = {key: canonical_json(item) for key, item in value.items()}
        text = canonical_object(parts)
        assert text == canonical_json(value)
        assert json.loads(text) == value


class TestAppendLog:
    def test_since_encodes_each_entry_from_the_mark_once(self):
        calls = []
        log = AppendLog([1, 2, 3, 4], lambda v: calls.append(v) or {"v": v}, None, 3)
        sealed, tail = log.since(1)
        assert sealed == [{"v": 2}, {"v": 3}]
        assert tail == {"from": 3, "entries": [{"v": 4}]}
        assert calls == [2, 3, 4]

    def test_since_the_sealed_length_is_the_open_tail(self):
        assert log_of([1, 2], 2).since(2) == ([], {"from": 2, "entries": []})

    def test_load_replaces_in_place(self):
        entries = [9]
        log = AppendLog(entries, None, lambda s: s["v"], 1)
        log.load({"from": 0, "entries": [{"v": 1}, {"v": 2}]})
        assert entries == [1, 2]

    def test_load_refuses_a_partial_log(self):
        with pytest.raises(RecoveryError, match="starts at 0"):
            log_of([], 0).load({"from": 1, "entries": []})

    def test_checkpoints_rebuild_the_log(self):
        """Sealed entries kept once per checkpoint, plus the newest open
        tail, equal the whole log, though open entries changed between."""
        values, kept, mark = [], [], 0
        for step in range(12):
            values.append(step)
            if len(values) > 1:
                values[-2] = -values[-2]  # an open entry changes before it seals
            log = log_of(values, max(0, len(values) - 2))
            sealed, tail = log.since(mark)
            kept += sealed
            mark = log.sealed
        assert kept + tail["entries"] == log.since(0)[0] + log.since(0)[1]["entries"]
        assert [e["v"] for e in kept + tail["entries"]] == values
