"""State serialisation primitives shared by every durable component.

The :class:`StateCodec` protocol is the shape a component must implement
to participate in checkpoint/restore: ``state_dict()`` returns a
JSON-serialisable dict that fully determines its mutable state, and
``load_state_dict(state)`` overwrites the live state from such a dict.
Class-level constructors (``Foo.from_state``) exist where a component is
rebuilt from scratch rather than mutated in place.

Encoding conventions (all byte-stable):

- numpy arrays → ``{"dtype", "shape", "b64"}`` with base64 of the raw
  C-order bytes.  No npz: zip containers embed member timestamps and are
  therefore not byte-stable across runs.
- ``WarehouseConfig`` → a sorted-key dict of its six knobs with enum
  members flattened to their names/values.
- columnar state (the DQN replay buffer) → one array record per column
  over the filled prefix, never one record per row, so the encode cost
  tracks the number of columns rather than the number of transitions.
- floats ride as JSON numbers — ``repr``-based round-tripping in the
  stdlib encoder is exact for finite doubles.
- canonical text is compact, sorted-key JSON
  (:func:`repro.common.stable_json.canonical_json`), which the stdlib's
  C encoder produces in one pass; a checksum is the SHA-256 of those
  exact bytes.  :func:`canonical_object` assembles the
  canonical text of a dict from its values' canonical texts, so a part
  whose text has not changed is never encoded again.
- an append-only log (:class:`AppendLog`) is encoded from the last
  checkpoint's mark on, once: the entries sealed since go to the store,
  the still-open rest travels as ``{"from": sealed, "entries": [...]}``.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.common.errors import RecoveryError
from repro.common.simtime import Window
from repro.common.stable_json import canonical_json
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import ScalingPolicy, WarehouseSize

__all__ = [
    "StateCodec",
    "encode_array",
    "decode_array",
    "encode_config",
    "decode_config",
    "encode_window",
    "decode_window",
    "canonical_object",
    "text_checksum",
    "state_checksum",
    "require_keys",
    "AppendLog",
]


@runtime_checkable
class StateCodec(Protocol):
    """A component whose mutable state round-trips through a JSON dict."""

    def state_dict(self) -> dict[str, Any]: ...

    def load_state_dict(self, state: dict[str, Any]) -> None: ...


def encode_array(arr: np.ndarray) -> dict[str, Any]:
    """Encode an ndarray as dtype/shape/base64-of-bytes (byte-stable)."""
    contiguous = np.ascontiguousarray(arr)
    return {
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
        "b64": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(state: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    raw = base64.b64decode(state["b64"])
    arr = np.frombuffer(raw, dtype=np.dtype(state["dtype"]))
    return arr.reshape(tuple(state["shape"])).copy()


def encode_config(config: WarehouseConfig) -> dict[str, Any]:
    return {
        "size": config.size.name,
        "auto_suspend_seconds": config.auto_suspend_seconds,
        "min_clusters": config.min_clusters,
        "max_clusters": config.max_clusters,
        "scaling_policy": config.scaling_policy.value,
        "max_concurrency": config.max_concurrency,
    }


def decode_config(state: dict[str, Any]) -> WarehouseConfig:
    return WarehouseConfig(
        size=WarehouseSize[state["size"]],
        auto_suspend_seconds=float(state["auto_suspend_seconds"]),
        min_clusters=int(state["min_clusters"]),
        max_clusters=int(state["max_clusters"]),
        scaling_policy=ScalingPolicy(state["scaling_policy"]),
        max_concurrency=int(state["max_concurrency"]),
    )


def encode_window(window: Window) -> dict[str, float]:
    return {"start": window.start, "end": window.end}


def decode_window(state: dict[str, Any]) -> Window:
    return Window(start=float(state["start"]), end=float(state["end"]))


def canonical_object(parts: dict[str, str]) -> str:
    """The canonical text of a dict whose values are already canonical texts.

    Equal to ``canonical_json({key: json.loads(text) ...})``: keys are
    sorted and encoded by the same encoder, values are spliced in as is.
    """
    chunks = ["{"]
    for key in sorted(parts):
        chunks += (json.dumps(key), ":", parts[key], ",")
    if parts:
        chunks.pop()  # the trailing comma
    chunks.append("}")
    return "".join(chunks)  # one copy of each part's text


def text_checksum(text: str) -> str:
    """SHA-256 hex digest of ``text``'s UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def state_checksum(state: dict[str, Any]) -> str:
    """SHA-256 over the canonical (compact, sorted-key) JSON of ``state``."""
    return text_checksum(canonical_json(state))


def require_keys(state: dict[str, Any], keys: tuple[str, ...], owner: str) -> None:
    """Validate a state dict carries every expected key (typed error)."""
    missing = [key for key in keys if key not in state]
    if missing:
        raise RecoveryError(f"{owner} state missing keys: {', '.join(missing)}")


class AppendLog(NamedTuple):
    """One append-only log as a checkpoint sees it.

    ``entries`` is the owner's live list.  ``entries[:sealed]`` never
    change again, so the checkpoint store keeps each of them once (the
    journal until the next compaction, then the segment); entries past
    ``sealed`` may still change (an open provenance record is sealed
    later) and travel in every checkpoint's state as the *open tail*
    ``{"from": sealed, "entries": [...]}``.
    """

    entries: list
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    sealed: int

    def since(self, mark: int) -> tuple[list[dict], dict[str, Any]]:
        """Encode the entries from ``mark`` (the sealed length at the last
        checkpoint) on, once: those sealed since, and the open tail."""
        encoded = [self.encode(e) for e in self.entries[mark:]]
        cut = self.sealed - mark
        return encoded[:cut], {"from": self.sealed, "entries": encoded[cut:]}

    def load(self, whole: dict[str, Any]) -> None:
        """Replace the live entries, in place, with a whole log (a tail from 0)."""
        if whole["from"] != 0:
            raise RecoveryError(f"a whole log starts at 0, not {whole['from']}")
        self.entries[:] = [self.decode(e) for e in whole["entries"]]
