"""The command table and exit-code boundary every command-line front end shares.

A command is a row ``(name, run, help, *flags)``: ``run`` is a
``handler(args, out) -> int`` (or, for a command family, the family's own
rows) and each flag is a :func:`flag`.  Handlers return 0 (ok) or 1 (the
command's check failed) and raise on unusable input; :func:`run_command`
is the one place that turns such an error into ``error: <msg>`` on stderr
and exit 2 (the table in docs/OBSERVABILITY.md §Exit codes).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Any

from repro.common.errors import ObservabilityError


def flag(*names: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """One argument of a command row, as ``add_argument`` takes it."""
    return names, kwargs


def add_commands(subparsers: argparse._SubParsersAction, rows: tuple) -> None:
    """Add command rows; a family's subcommands land under ``<name>_command``."""
    for name, run, help_text, *flags in rows:
        parser = subparsers.add_parser(name, help=help_text)
        if callable(run):
            parser.set_defaults(run=run)
        else:
            family = parser.add_subparsers(dest=f"{name}_command", required=True)
            add_commands(family, run)
        for names, kwargs in flags:
            parser.add_argument(*names, **kwargs)


def run_command(args: argparse.Namespace, out: IO[str] | None = None) -> int:
    """Run a parsed command's handler; unusable input exits 2."""
    try:
        return args.run(args, out if out is not None else sys.stdout)
    except (OSError, ValueError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def non_negative_int(text: str) -> int:
    """argparse type for row counts: a negative count is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value
