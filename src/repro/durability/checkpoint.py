"""The on-disk checkpoint store: MANIFEST + snapshot + journal + log segment.

Layout of a checkpoint directory::

    MANIFEST.json    identity: schema, account, config_hash, cadence
    segment.jsonl    append-only sealed log entries, one frame per compaction
    snapshot.json    last compacted state (atomic, checksummed)
    journal.jsonl    framed delta entries since (at most) that snapshot

``snapshot.json`` is one line of canonical compact sorted-key JSON (see
:func:`repro.common.stable_json.canonical_json`): ``checksum``, ``schema``,
``segment``, ``seq``, ``state`` and ``time``.  The caller hands the
state in as canonical text, so it is encoded once; the checksum is the
SHA-256 of the file's own bytes with the checksum field taken out, and
the wrapper is assembled around the state text rather than re-encoded.
Directories written under an older ``SCHEMA`` are refused.

The log segment
---------------
Append-only logs (provenance, decisions, the actuator log, the savings
and attribution ledgers, live-ledger reconciliations) grow for as long
as the service runs, so no checkpoint re-encodes their sealed entries.
Every checkpoint hands the store the entries sealed since the previous
one, keyed by opaque log names: a delta carries them in its journal
entry (``sealed``), and each compaction appends the batch the journal
gathered since the last snapshot, plus its own, to ``segment.jsonl`` as
one frame (framed like the journal, fsync'd).  The snapshot's
``segment`` field records the prefix it relies on: its byte length, its
frame count, and per log the ``count`` of sealed entries with a
``chain`` checksum (each frame's batch text hashed onto the previous
chain).  The state itself carries only each log's open tail.  On load,
every byte of the referenced prefix must parse and chain exactly;
:attr:`CheckpointLoad.sealed` hands back the segment's entries followed
by the journal's, for the caller to splice in front of its tails.

Crash-consistency contract
--------------------------
Compaction first cuts the segment back to the prefix the current
snapshot references and appends the new frame (one fsync), then writes
the snapshot (atomic rename), then resets the journal to a single
``basis`` marker carrying the snapshot's seq and checksum (atomic
rename).  A crash after the append leaves segment bytes past the
referenced prefix — benign residue, never read and cut by the next
compaction.  A crash between the snapshot and the journal reset leaves
a journal whose basis *lags* the snapshot — benign, the overlapped
entries are discarded on load.  A journal basis *ahead* of the snapshot
can only mean the snapshot write was lost after the journal moved on
(``stale_snapshot``) and is a hard :class:`RecoveryError`; so is any
damage inside the referenced segment prefix, with or without repair.
Journal appends can tear mid-line on crash; torn *tails* are truncated
under ``repair=True`` and fatal otherwise; corruption anywhere earlier
is always fatal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.errors import RecoveryError
from repro.common.stable_json import canonical_json, dumps_json
from repro.durability.codec import canonical_object, text_checksum
from repro.durability.io import (
    append_journal_entry,
    append_segment_frame,
    atomic_write_bytes,
    atomic_write_text,
    frame_bytes,
    frame_entry,
    read_frames,
    read_journal,
)

SCHEMA = "repro.durability/3"

__all__ = ["SCHEMA", "CheckpointLoad", "CheckpointStore"]


def _chain(previous: str, batch_text: str) -> str:
    """A log's chained checksum after one more sealed batch."""
    return text_checksum(previous + batch_text)


class CheckpointLoad:
    """Validated contents of a checkpoint directory."""

    def __init__(
        self,
        manifest: dict[str, Any],
        snapshot: dict[str, Any],
        entries: list[dict[str, Any]],
        repairs: list[str],
        sealed: dict[str, list],
        residue_bytes: int,
    ):
        self.manifest = manifest
        self.snapshot = snapshot  # wrapper: checksum/schema/segment/seq/state/time
        self.entries = entries  # journal entries with seq > snapshot seq
        self.repairs = repairs  # torn-tail truncations applied (repair mode)
        self.sealed = sealed  # log name -> sealed entries: segment prefix + journal
        self.residue_bytes = residue_bytes  # segment bytes past that prefix

    @property
    def state(self) -> dict[str, Any]:
        return self.snapshot["state"]

    @property
    def segment_entries(self) -> int:
        """Sealed entries in the segment prefix the snapshot references."""
        return sum(log["count"] for log in self.snapshot["segment"]["logs"].values())


class CheckpointStore:
    """File-format owner for one checkpoint directory.

    The store is deliberately schema-agnostic about *what* is inside the
    snapshot state and journal entries — that vocabulary belongs to
    :mod:`repro.core.optimizer`.  It owns identity (MANIFEST), atomicity,
    framing, sequencing, and corruption detection.
    """

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.manifest_path = self.directory / "MANIFEST.json"
        self.snapshot_path = self.directory / "snapshot.json"
        self.journal_path = self.directory / "journal.jsonl"
        self.segment_path = self.directory / "segment.jsonl"
        #: The segment prefix the newest snapshot written or loaded refers to.
        self.segment: dict[str, Any] = {"bytes": 0, "frames": 0, "logs": {}}
        #: Entries the journal sealed since that snapshot, by log name: the
        #: head of the next segment frame.
        self.pending: dict[str, list] = {}

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def initialize(self, *, account: str, config_hash: str, cadence_seconds: float) -> None:
        """Create the directory and write its identity manifest."""
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": SCHEMA,
            "account": account,
            "config_hash": config_hash,
            "cadence_seconds": cadence_seconds,
        }
        atomic_write_text(self.manifest_path, dumps_json(manifest))

    def write_snapshot(
        self, *, seq: int, time: float, state_text: str, sealed: dict[str, list]
    ) -> None:
        """Compact: seal log entries, publish the snapshot, reset the journal.

        ``state_text`` is the state's canonical text; ``sealed`` maps log
        names to the entries sealed since the last checkpoint, which the
        frame appends after those the journal holds.  Ordering matters
        (see module docstring): segment first, snapshot second, basis
        third, so every crash window leaves a readable directory.
        """
        for name, batch in sealed.items():
            self.pending.setdefault(name, []).extend(batch)
        segment = self._seal(self.pending)
        parts = {
            "schema": canonical_json(SCHEMA),
            "segment": canonical_json(segment),
            "seq": canonical_json(seq),
            "state": state_text,
            "time": canonical_json(time),
        }
        checksum = text_checksum(canonical_object(parts))
        text = canonical_object({"checksum": canonical_json(checksum), **parts})
        atomic_write_text(self.snapshot_path, text + "\n")
        self.segment, self.pending = segment, {}
        basis = {"seq": seq, "kind": "basis", "checksum": checksum}
        atomic_write_bytes(self.journal_path, frame_entry(basis))

    def _seal(self, sealed: dict[str, list]) -> dict[str, Any]:
        """Append ``sealed`` as the next segment frame; the new reference."""
        prefix = self.segment
        logs = dict(prefix["logs"])
        batches: dict[str, str] = {}
        chains: dict[str, str] = {}
        for name in sorted(sealed):
            if not sealed[name]:
                continue
            batches[name] = canonical_json(sealed[name])
            held = logs.get(name, {"chain": "", "count": 0})
            chain = _chain(held["chain"], batches[name])
            logs[name] = {"chain": chain, "count": held["count"] + len(sealed[name])}
            chains[name] = canonical_json(chain)
        body = canonical_object(
            {
                "chains": canonical_object(chains),
                "logs": canonical_object(batches),
                "seq": canonical_json(prefix["frames"]),
            }
        )
        frame = frame_bytes(body.encode("utf-8"))
        append_segment_frame(self.segment_path, frame, prefix["bytes"])
        return {"bytes": prefix["bytes"] + len(frame), "frames": prefix["frames"] + 1, "logs": logs}

    def append(self, payload: dict[str, Any], sealed: dict[str, list]) -> None:
        """Append one delta entry (payload must carry a contiguous seq).

        ``sealed`` maps log names to the entries sealed since the last
        checkpoint; the entry carries them, and the next compaction moves
        them into the segment.
        """
        append_journal_entry(self.journal_path, {**payload, "sealed": sealed})
        for name, batch in sealed.items():
            self.pending.setdefault(name, []).extend(batch)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def load(
        self, *, expected_config_hash: str | None = None, repair: bool = False
    ) -> CheckpointLoad:
        """Read and validate every artifact; all-or-nothing."""
        manifest = self._read_manifest()
        if expected_config_hash is not None and manifest["config_hash"] != expected_config_hash:
            raise RecoveryError(
                f"checkpoint config_hash {manifest['config_hash']!r} does not match "
                f"the running scenario {expected_config_hash!r}"
            )
        snapshot = self._read_snapshot()
        # Before the journal: a repair truncates its torn tail on disk, so
        # every refusal that does not depend on the journal comes first.
        sealed = self._read_segment(snapshot["segment"])
        scan = read_journal(self.journal_path, start_seq=None, repair=repair)
        repairs = [f"truncated torn journal tail ({scan.torn_tail})"] if scan.torn_tail else []
        if not scan.entries:
            raise RecoveryError("journal.jsonl has no basis entry")
        basis = scan.entries[0]
        if basis.get("kind") != "basis":
            raise RecoveryError("journal.jsonl does not start with a basis entry")
        if basis["seq"] > snapshot["seq"]:
            raise RecoveryError(
                f"stale snapshot: journal basis seq {basis['seq']} is ahead of "
                f"snapshot seq {snapshot['seq']} (snapshot write was lost)"
            )
        if basis["seq"] == snapshot["seq"] and basis["checksum"] != snapshot["checksum"]:
            raise RecoveryError("journal basis checksum does not match the snapshot")
        entries = [entry for entry in scan.entries[1:] if entry["seq"] > snapshot["seq"]]
        pending: dict[str, list] = {}
        expected = snapshot["seq"] + 1
        for entry in entries:
            if entry["seq"] != expected:
                raise RecoveryError(
                    f"journal entry seq {entry['seq']} != expected {expected} after snapshot"
                )
            expected += 1
            batches = entry.pop("sealed", None)
            if not isinstance(batches, dict) or not all(
                isinstance(batch, list) for batch in batches.values()
            ):
                raise RecoveryError(f"journal entry seq {entry['seq']} has no sealed batches")
            for name, batch in batches.items():
                pending.setdefault(name, []).extend(batch)
        self.segment, self.pending = snapshot["segment"], pending
        for name, batch in pending.items():
            sealed[name] = sealed.get(name, []) + batch
        size = self.segment_path.stat().st_size if self.segment_path.exists() else 0
        residue = size - self.segment["bytes"]
        return CheckpointLoad(manifest, snapshot, entries, repairs, sealed, residue)

    def verify(self, *, expected_config_hash: str | None = None) -> dict[str, Any]:
        """Non-raising validation report (CLI ``durability verify``)."""
        report: dict[str, Any] = {
            "directory": str(self.directory),
            "ok": False,
            "errors": [],
            "snapshot_seq": None,
            "journal_entries": None,
            "segment_frames": None,
            "segment_entries": None,
            "segment_residue_bytes": None,
        }
        try:
            load = self.load(expected_config_hash=expected_config_hash, repair=False)
        except RecoveryError as exc:
            report["errors"].append(str(exc))
            return report
        report["ok"] = True
        report["snapshot_seq"] = load.snapshot["seq"]
        report["journal_entries"] = len(load.entries)
        report["segment_frames"] = load.snapshot["segment"]["frames"]
        report["segment_entries"] = load.segment_entries
        report["segment_residue_bytes"] = load.residue_bytes
        return report

    def _read_manifest(self) -> dict[str, Any]:
        if not self.manifest_path.exists():
            raise RecoveryError(f"missing {self.manifest_path.name}")
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except ValueError as exc:
            raise RecoveryError(f"{self.manifest_path.name} is not valid JSON") from exc
        if not isinstance(manifest, dict) or manifest.get("schema") != SCHEMA:
            raise RecoveryError(
                f"{self.manifest_path.name} schema is not {SCHEMA!r}"
            )
        return manifest

    def _read_snapshot(self) -> dict[str, Any]:
        if not self.snapshot_path.exists():
            raise RecoveryError(f"missing {self.snapshot_path.name}")
        text = self.snapshot_path.read_text()
        if not text.strip():
            raise RecoveryError(f"{self.snapshot_path.name} is empty")
        try:
            wrapper = json.loads(text)
        except ValueError as exc:
            raise RecoveryError(f"{self.snapshot_path.name} is not valid JSON") from exc
        for key in ("schema", "segment", "seq", "time", "checksum", "state"):
            if not isinstance(wrapper, dict) or key not in wrapper:
                raise RecoveryError(f"{self.snapshot_path.name} missing {key!r}")
        if wrapper["schema"] != SCHEMA:
            raise RecoveryError(f"{self.snapshot_path.name} schema is not {SCHEMA!r}")
        # The file is canonical text: its checksum field comes first, and
        # the rest of the line is the checksummed body.
        head = canonical_object({"checksum": canonical_json(wrapper["checksum"])})[:-1] + ","
        body = "{" + text[len(head):].removesuffix("\n")
        if not text.startswith(head) or text_checksum(body) != wrapper["checksum"]:
            raise RecoveryError(f"{self.snapshot_path.name} checksum mismatch (corrupt state)")
        return wrapper

    def _read_segment(self, reference: Any) -> dict[str, list]:
        """The sealed entries of the segment prefix ``reference`` names.

        Every frame must parse, number contiguously and chain exactly, and
        the per-log counts and chains must equal the reference's.
        """
        try:
            size, frame_count, logs = (
                int(reference["bytes"]), int(reference["frames"]), reference["logs"]
            )
            if size < 0 or frame_count < 0:
                raise ValueError("negative prefix")
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(f"{self.snapshot_path.name} segment reference is malformed") from exc
        frames = read_frames(self.segment_path, size)
        if len(frames) != frame_count:
            raise RecoveryError(
                f"{self.segment_path.name} prefix holds {len(frames)} frames, "
                f"the snapshot references {frame_count}"
            )
        sealed: dict[str, list] = {}
        chains: dict[str, str] = {}
        for frame in frames:
            batches, declared = frame.get("logs"), frame.get("chains")
            if not (isinstance(batches, dict) and isinstance(declared, dict)) or set(
                batches
            ) != set(declared):
                raise RecoveryError(f"{self.segment_path.name} frame {frame['seq']} is malformed")
            for name, batch in batches.items():
                if not isinstance(batch, list):
                    raise RecoveryError(f"{self.segment_path.name} frame {frame['seq']} is malformed")
                chain = _chain(chains.get(name, ""), canonical_json(batch))
                if declared[name] != chain:
                    raise RecoveryError(
                        f"{self.segment_path.name} frame {frame['seq']}: chained checksum "
                        f"mismatch for log {name!r}"
                    )
                chains[name] = chain
                sealed.setdefault(name, []).extend(batch)
        found = {name: {"chain": chains[name], "count": len(sealed[name])} for name in sealed}
        if found != logs:
            raise RecoveryError(
                f"{self.segment_path.name} prefix does not match the snapshot's log counts and chains"
            )
        return sealed

    # ------------------------------------------------------------------
    # fault-injection hooks (repro.faults process-level kinds)
    # ------------------------------------------------------------------
    def inject_torn_write(self) -> None:
        """Append only the first half of a framed line (crash mid-append)."""
        line = frame_entry({"seq": -1, "kind": "torn"})
        # Deliberately non-atomic: this hook *simulates* the torn write the
        # atomic helpers exist to prevent.
        with open(self.journal_path, "ab") as handle:  # repro-lint: disable=R019
            handle.write(line[: max(1, len(line) // 2)])

    def inject_truncated_journal(self, drop_bytes: int = 5) -> None:
        """Drop trailing bytes from the journal (lost tail of a write)."""
        size = self.journal_path.stat().st_size
        with open(self.journal_path, "ab") as handle:  # repro-lint: disable=R019
            handle.truncate(max(0, size - drop_bytes))

    def inject_stale_snapshot(self) -> None:
        """Reset the journal as if a compaction ran, without the snapshot.

        Models the ordering bug the store's write discipline exists to
        prevent: the journal basis moves ahead of the snapshot seq, so the
        entries that would rebuild the newer state are gone.
        """
        wrapper = self._read_snapshot()
        basis = {
            "seq": wrapper["seq"] + 1,
            "kind": "basis",
            "checksum": wrapper["checksum"],
        }
        atomic_write_bytes(self.journal_path, frame_entry(basis))
