"""Byte-stable JSON serialization, shared by every JSON artifact the repo
writes (checkpoints, trace sidecars, portal exports, lint reports).

Two spellings, one contract (sorted keys, the stdlib encoder):
:func:`canonical_json` is the compact text that is hashed, framed and
written one record per line; :func:`dumps_json` is the indented text of
files meant to be read and diffed."""

from __future__ import annotations

import json
from typing import IO, Any


def canonical_json(value: Any) -> str:
    """The canonical text of ``value``: compact, sorted-key JSON."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


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
