"""The on-disk checkpoint store: MANIFEST + snapshot + recovery journal.

Layout of a checkpoint directory::

    MANIFEST.json    identity: schema, account, config_hash, cadence
    snapshot.json    last compacted full state (atomic, checksummed)
    journal.jsonl    framed delta entries since (at most) that snapshot

Crash-consistency contract
--------------------------
Compaction writes the snapshot *first* (atomic rename), then resets the
journal to a single ``basis`` marker carrying the snapshot's seq and
checksum (atomic rename).  A crash between the two leaves a journal
whose basis *lags* the snapshot — benign, the overlapped entries are
discarded on load.  A journal basis *ahead* of the snapshot can only
mean the snapshot write was lost after the journal moved on
(``stale_snapshot``) and is a hard :class:`RecoveryError`.  Journal
appends can tear mid-line on crash; torn *tails* are truncated under
``repair=True`` and fatal otherwise; corruption anywhere earlier is
always fatal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.errors import RecoveryError
from repro.common.stable_json import dumps_json
from repro.durability.codec import state_checksum
from repro.durability.io import (
    append_journal_entry,
    atomic_write_bytes,
    atomic_write_text,
    frame_entry,
    read_journal,
)

SCHEMA = "repro.durability/1"

__all__ = ["SCHEMA", "CheckpointLoad", "CheckpointStore"]


class CheckpointLoad:
    """Validated contents of a checkpoint directory."""

    def __init__(
        self,
        manifest: dict[str, Any],
        snapshot: dict[str, Any],
        entries: list[dict[str, Any]],
        repairs: list[str],
    ):
        self.manifest = manifest
        self.snapshot = snapshot  # wrapper: schema/seq/time/checksum/state
        self.entries = entries  # journal entries with seq > snapshot seq
        self.repairs = repairs  # torn-tail truncations applied (repair mode)

    @property
    def state(self) -> dict[str, Any]:
        return self.snapshot["state"]


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

    def write_snapshot(self, *, seq: int, time: float, state: dict[str, Any]) -> None:
        """Compact: publish a full-state snapshot, then reset the journal.

        Ordering matters (see module docstring): snapshot first, basis
        second, so the only crash window produces a *lagging* journal.
        """
        checksum = state_checksum(state)
        wrapper = {
            "schema": SCHEMA,
            "seq": seq,
            "time": time,
            "checksum": checksum,
            "state": state,
        }
        atomic_write_text(self.snapshot_path, dumps_json(wrapper))
        basis = {"seq": seq, "kind": "basis", "checksum": checksum}
        atomic_write_bytes(self.journal_path, frame_entry(basis))

    def append(self, payload: dict[str, Any]) -> None:
        """Append one delta entry (payload must carry a contiguous seq)."""
        append_journal_entry(self.journal_path, payload)

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
        expected = snapshot["seq"] + 1
        for entry in entries:
            if entry["seq"] != expected:
                raise RecoveryError(
                    f"journal entry seq {entry['seq']} != expected {expected} after snapshot"
                )
            expected += 1
        return CheckpointLoad(manifest, snapshot, entries, repairs)

    def verify(self, *, expected_config_hash: str | None = None) -> dict[str, Any]:
        """Non-raising validation report (CLI ``durability verify``)."""
        report: dict[str, Any] = {
            "directory": str(self.directory),
            "ok": False,
            "errors": [],
            "snapshot_seq": None,
            "journal_entries": None,
        }
        try:
            load = self.load(expected_config_hash=expected_config_hash, repair=False)
        except RecoveryError as exc:
            report["errors"].append(str(exc))
            return report
        report["ok"] = True
        report["snapshot_seq"] = load.snapshot["seq"]
        report["journal_entries"] = len(load.entries)
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
        for key in ("schema", "seq", "time", "checksum", "state"):
            if not isinstance(wrapper, dict) or key not in wrapper:
                raise RecoveryError(f"{self.snapshot_path.name} missing {key!r}")
        if wrapper["schema"] != SCHEMA:
            raise RecoveryError(f"{self.snapshot_path.name} schema is not {SCHEMA!r}")
        if state_checksum(wrapper["state"]) != wrapper["checksum"]:
            raise RecoveryError(f"{self.snapshot_path.name} checksum mismatch (corrupt state)")
        return wrapper

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
