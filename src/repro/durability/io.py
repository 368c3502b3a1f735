"""Atomic file primitives and the framed recovery journal.

Every durable control-plane artifact in the repo goes through this module
(lint rule R019 enforces it): writes are tmp-file + ``os.replace`` so a
crash mid-write leaves either the old bytes or the new bytes, never a
torn file.  The journal and the log segment are the deliberate
exceptions — they are append-only, so a crash can tear or extend their
*tail*; the framing below exists so a damaged tail is detected instead
of silently replayed.

Journal framing
---------------
One entry per line::

    <payload-length> <crc32-hex> <compact-json-payload>\n

``payload-length`` is the byte length of the UTF-8 payload, ``crc32-hex``
is ``zlib.crc32`` of those bytes.  Payloads are compact sorted-key JSON so
the same entry always frames to the same bytes.  Entries additionally
carry a ``seq`` field checked to be contiguous by the reader.

The log segment (:func:`append_segment_frame`, :func:`read_frames`) uses
the same framing, one frame per compaction.  Its reader is strict: the
snapshot names the exact byte prefix it relies on, so any defect inside
it is fatal and bytes past it are never parsed.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

from repro.common.errors import RecoveryError
from repro.common.stable_json import canonical_json

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "frame_bytes",
    "frame_entry",
    "append_journal_entry",
    "append_segment_frame",
    "read_frames",
    "read_journal",
    "JournalScan",
]


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + rename)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + rename).

    The tmp file lives in the destination directory so ``os.replace`` is a
    same-filesystem rename; it is fsync'd before the rename so the rename
    never publishes an empty inode, and the directory is fsync'd after it
    so a power loss cannot undo the rename itself.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def frame_bytes(body: bytes) -> bytes:
    """Frame one payload's canonical bytes as ``<length> <crc32> <body>\\n``."""
    return b"%d %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


def frame_entry(payload: dict[str, Any]) -> bytes:
    """Serialise one journal entry to its framed line."""
    return frame_bytes(canonical_json(payload).encode("utf-8"))


def append_journal_entry(path: Path, payload: dict[str, Any]) -> None:
    """Append one framed entry to the journal (create the file if absent)."""
    line = frame_entry(payload)
    with open(path, "ab") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def append_segment_frame(path: Path, frame: bytes, keep_bytes: int) -> None:
    """Cut the segment back to its first ``keep_bytes``, then append ``frame``.

    ``keep_bytes`` is the prefix the newest snapshot references; anything
    past it is residue of a compaction that crashed between this append
    and its snapshot rename.  One fsync covers the cut and the append.
    """
    with open(path, "ab") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < keep_bytes:
            raise RecoveryError(
                f"{Path(path).name} holds {size} bytes, below the {keep_bytes}-byte "
                "prefix the snapshot references"
            )
        handle.truncate(keep_bytes)
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())


def read_frames(path: Path, size: int) -> list[dict[str, Any]]:
    """The framed payloads in the first ``size`` bytes of ``path``.

    Frames must carry contiguous ``seq`` numbers from 0.  Any defect —
    a short file, a torn or corrupt frame, a gap — raises
    :class:`RecoveryError`; no repair applies inside a referenced prefix.
    """
    path = Path(path)
    data = b""
    if path.exists():
        with open(path, "rb") as handle:
            data = handle.read(size)
    if len(data) < size:
        raise RecoveryError(
            f"{path.name} holds {len(data)} bytes, below the {size}-byte prefix "
            "the snapshot references"
        )
    frames: list[dict[str, Any]] = []
    for payload, error, _ in _frames(data, 0):
        if payload is None:
            raise RecoveryError(f"corruption in {path.name}: {error}")
        frames.append(payload)
    return frames


class JournalScan:
    """Result of reading a journal: parsed entries plus tail diagnostics."""

    def __init__(self, entries: list[dict[str, Any]], good_bytes: int, torn_tail: str | None):
        self.entries = entries
        self.good_bytes = good_bytes
        self.torn_tail = torn_tail  # description of the tail defect, if any


def _parse_line(raw: bytes, lineno: int) -> tuple[dict[str, Any] | None, str | None]:
    """Parse one framed line; return (payload, error-description)."""
    if not raw.endswith(b"\n"):
        return None, f"line {lineno}: missing trailing newline (torn write)"
    line = raw[:-1]
    head, sep, body = line.partition(b" ")
    if not sep:
        return None, f"line {lineno}: no framing header"
    crc_hex, sep, body = body.partition(b" ")
    if not sep:
        return None, f"line {lineno}: no checksum field"
    try:
        length = int(head)
    except ValueError:
        return None, f"line {lineno}: non-integer length field"
    if length != len(body):
        return None, f"line {lineno}: length {len(body)} != declared {length}"
    if b"%08x" % zlib.crc32(body) != crc_hex:
        return None, f"line {lineno}: crc mismatch"
    try:
        payload = json.loads(body)
    except ValueError:
        return None, f"line {lineno}: framed payload is not valid JSON"
    if not isinstance(payload, dict) or "seq" not in payload:
        return None, f"line {lineno}: payload missing 'seq'"
    return payload, None


def _frames(data: bytes, start_seq: int | None):
    """Yield ``(payload, error, end offset)`` per framed line, in order,
    stopping after the first defect (``payload`` None).  Sequence numbers
    must count up from ``start_seq`` (``None``: from the first line's)."""
    offset = lineno = 0
    expected = start_seq
    while offset < len(data):
        lineno += 1
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline + 1
        payload, error = _parse_line(data[offset:end], lineno)
        if payload is not None and expected is None:
            expected = payload["seq"]
        if payload is not None and payload["seq"] != expected:
            payload, error = None, (
                f"line {lineno}: seq {payload['seq']} != expected {expected} (gap or replay)"
            )
        yield payload, error, end
        if payload is None:
            return
        expected += 1
        offset = end


def read_journal(path: Path, *, start_seq: int | None, repair: bool = False) -> JournalScan:
    """Read and validate a framed journal.

    ``start_seq`` is the expected sequence number of the first entry;
    ``None`` accepts whatever the first (checksummed) entry declares and
    enforces contiguity from there — the caller then validates the basis
    against the snapshot.  Corruption anywhere but the final line is
    unconditionally a :class:`RecoveryError` — entries after it cannot be
    trusted.  A corrupt *final* line is the torn-tail case a crash can
    legitimately produce: with ``repair=True`` the file is truncated back
    to the last good entry and the scan succeeds; otherwise it raises.
    """
    path = Path(path)
    if not path.exists():
        return JournalScan([], 0, None)
    data = path.read_bytes()
    entries: list[dict[str, Any]] = []
    good_bytes = 0
    for payload, error, end in _frames(data, start_seq):
        if payload is None:
            at_tail = end == len(data)
            if at_tail and repair:
                with open(path, "ab") as handle:
                    handle.truncate(good_bytes)
                return JournalScan(entries, good_bytes, error)
            kind = "torn journal tail" if at_tail else "mid-journal corruption"
            raise RecoveryError(f"{kind} in {path.name}: {error}")
        entries.append(payload)
        good_bytes = end
    return JournalScan(entries, good_bytes, None)
