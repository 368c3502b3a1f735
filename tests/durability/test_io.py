"""Framing and atomic-write primitives: the bytes the recovery contract rests on."""

import os
import stat

import pytest

from repro.common.errors import RecoveryError
from repro.durability.io import (
    append_journal_entry,
    atomic_write_bytes,
    atomic_write_text,
    frame_entry,
    read_journal,
)


class TestAtomicWrites:
    def test_write_text_roundtrip(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_text(path, '{"x": 1}\n')
        assert path.read_text() == '{"x": 1}\n'

    def test_write_replaces_existing(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_tmp_file_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin"]

    def test_rename_is_made_durable(self, tmp_path, monkeypatch):
        """The parent directory is fsync'd after the rename, not before."""
        calls = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            calls.append(("replace", None))
            real_replace(src, dst)

        def fsync(fd):
            calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            real_fsync(fd)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        atomic_write_bytes(tmp_path / "c.bin", b"payload")
        assert calls == [("fsync", False), ("replace", None), ("fsync", True)]


class TestFraming:
    def test_frame_is_deterministic(self):
        assert frame_entry({"seq": 1, "b": 2}) == frame_entry({"b": 2, "seq": 1})

    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        entries = [{"seq": i, "payload": f"e{i}"} for i in range(5)]
        for entry in entries:
            append_journal_entry(path, entry)
        scan = read_journal(path, start_seq=0)
        assert scan.entries == entries
        assert scan.torn_tail is None
        assert scan.good_bytes == path.stat().st_size

    def test_missing_file_is_empty_scan(self, tmp_path):
        scan = read_journal(tmp_path / "absent.jsonl", start_seq=None)
        assert scan.entries == []

    def test_start_seq_none_accepts_first_entry(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_journal_entry(path, {"seq": 7})
        append_journal_entry(path, {"seq": 8})
        assert [e["seq"] for e in read_journal(path, start_seq=None).entries] == [7, 8]


class TestTornTail:
    def _journal(self, tmp_path, n=3):
        path = tmp_path / "journal.jsonl"
        for i in range(n):
            append_journal_entry(path, {"seq": i})
        return path

    def test_torn_tail_strict_raises(self, tmp_path):
        path = self._journal(tmp_path)
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(frame_entry({"seq": 3})[:-4])
        with pytest.raises(RecoveryError, match="torn journal tail"):
            read_journal(path, start_seq=0)
        assert path.stat().st_size > good  # strict mode never mutates

    def test_torn_tail_repair_truncates(self, tmp_path):
        path = self._journal(tmp_path)
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(frame_entry({"seq": 3})[:-4])
        scan = read_journal(path, start_seq=0, repair=True)
        assert [e["seq"] for e in scan.entries] == [0, 1, 2]
        assert scan.torn_tail is not None
        assert path.stat().st_size == good  # file truncated back to good bytes
        # After repair the journal reads clean.
        assert read_journal(path, start_seq=0).torn_tail is None

    def test_mid_journal_corruption_fatal_even_with_repair(self, tmp_path):
        path = self._journal(tmp_path)
        raw = bytearray(path.read_bytes())
        # Flip a byte inside the FIRST framed body, not the tail.
        raw[len(raw) // 6] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(RecoveryError, match="mid-journal corruption"):
            read_journal(path, start_seq=0, repair=True)

    def test_crc_mismatch_detected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        line = bytearray(frame_entry({"seq": 0, "v": "abcd"}))
        line[-3] ^= 0x01  # corrupt the body, keep length and newline
        path.write_bytes(bytes(line))
        with pytest.raises(RecoveryError):
            read_journal(path, start_seq=0)

    def test_seq_gap_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_journal_entry(path, {"seq": 0})
        append_journal_entry(path, {"seq": 2})
        with pytest.raises(RecoveryError, match="gap or replay"):
            read_journal(path, start_seq=0)

    def test_wrong_start_seq_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_journal_entry(path, {"seq": 5})
        with pytest.raises(RecoveryError):
            read_journal(path, start_seq=0)
