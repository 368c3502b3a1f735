"""Byte-stable JSON serialization, shared by every JSON artifact the repo
writes (checkpoints, trace sidecars, portal exports, lint reports)."""

from __future__ import annotations

import json
from typing import IO


def dumps_json(payload: dict) -> str:
    """The byte-stable JSON text: sorted keys, 2-space indent, trailing LF.

    The single serializer behind every JSON artifact the repo diffs in CI
    (lint output, portal exports, attribution reports) — one place
    to define "stable", so artifacts from different subsystems never drift
    in formatting.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_json(payload: dict, out: IO[str]) -> None:
    """Serialize ``payload`` byte-stably onto ``out`` (see :func:`dumps_json`)."""
    out.write(dumps_json(payload))
