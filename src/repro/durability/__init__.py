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

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.durability.checkpoint": ("SCHEMA", "CheckpointLoad", "CheckpointStore"),
        "repro.durability.codec": (
            "StateCodec",
            "decode_array",
            "decode_config",
            "decode_window",
            "encode_array",
            "encode_config",
            "encode_window",
            "state_checksum",
        ),
        "repro.durability.io": ("atomic_write_bytes", "atomic_write_text", "read_journal"),
    },
)
