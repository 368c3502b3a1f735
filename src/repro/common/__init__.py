"""Shared infrastructure: errors, seeded RNG streams, sim-time helpers, stats.

Everything in :mod:`repro` builds on these primitives.  They are deliberately
small and dependency-free (numpy only) so that the simulator, the cost model
and the learning stack agree on time conventions and randomness.

This module also holds :func:`facade`, the lazy re-export (PEP 562) every
package ``__init__`` uses, so that ``import repro.x.y`` runs only what
``y`` imports.  It lives here rather than in a module of its own because
every facade imports ``repro.common`` anyway.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence


def facade(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``exports``
    (defining module -> the names it exports).

    A name's module is imported on its first attribute access
    (``pkg.Name``, ``from pkg import Name``, ``from pkg import *``), and
    the value is bound into the package namespace, so later lookups are
    plain attribute reads.  An unknown name raises ``AttributeError``, as
    PEP 562 requires; ``from pkg import submodule`` then falls back to
    importing the submodule.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__`` (not ``importlib.import_module``) so that
        # ``python -X importtime`` logs the module under its own name.
        value = getattr(__import__(module, fromlist=(name,)), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.common.errors": (
            "ConfigurationError",
            "ConstraintViolationError",
            "InvalidActionError",
            "ReproError",
            "TelemetryError",
            "UnknownWarehouseError",
            "WarehouseError",
        ),
        "repro.common.rng": ("RngRegistry",),
        "repro.common.simtime": (
            "DAY",
            "HOUR",
            "MINUTE",
            "WEEK",
            "Window",
            "day_index",
            "day_of_week",
            "format_time",
            "hour_index",
            "hour_of_day",
            "minute_of_day",
        ),
        "repro.common.stats": (
            "StreamingStats",
            "ewma",
            "median",
            "percentile",
            "summarize",
        ),
    },
)
