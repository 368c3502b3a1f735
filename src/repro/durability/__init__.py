"""Durable control-plane state: checkpoints, a recovery journal, and
crash-consistent restore (docs/ROBUSTNESS.md §v2).

The subsystem is split by responsibility:

- :mod:`repro.durability.io` — atomic writes, journal framing and the
  log segment's append.  The only module allowed to open durable
  artifacts for writing (lint rule R019 enforces the discipline
  everywhere else).
- :mod:`repro.durability.codec` — the :class:`StateCodec` protocol,
  byte-stable encoders for arrays, configs, and windows, per-part
  canonical text, and the append-only log codec (:class:`AppendLog`).
- :mod:`repro.durability.checkpoint` — the on-disk store (MANIFEST +
  log segment + snapshot + journal) with compaction, torn-tail repair,
  and the process-level fault-injection hooks.

What *state* goes into a checkpoint is owned by the components
themselves (``state_dict``/``load_state_dict``) and orchestrated by
``KeeboService.checkpoint``/``restore`` in :mod:`repro.core.optimizer`.
"""

from repro.durability.checkpoint import SCHEMA, CheckpointLoad, CheckpointStore
from repro.durability.codec import (
    StateCodec,
    decode_array,
    decode_config,
    decode_window,
    encode_array,
    encode_config,
    encode_window,
    state_checksum,
)
from repro.durability.io import (
    atomic_savez,
    atomic_write_bytes,
    atomic_write_text,
    read_journal,
)

__all__ = [
    "SCHEMA",
    "CheckpointLoad",
    "CheckpointStore",
    "StateCodec",
    "encode_array",
    "decode_array",
    "encode_config",
    "decode_config",
    "encode_window",
    "decode_window",
    "state_checksum",
    "atomic_write_text",
    "atomic_write_bytes",
    "atomic_savez",
    "read_journal",
]
