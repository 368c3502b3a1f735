"""Run manifests: the provenance record written alongside every result.

A manifest answers "what exactly produced this number?" — the scenario
name, root seed, a content hash of the configuration that was run, the
slider position and the package version.  Because a run is a pure function
of ``(scenario, seed)`` (docs/INVARIANTS.md), the manifest is a complete
replay recipe: two results with equal manifests are byte-comparable.

``config_hash`` canonicalises arbitrary nests of dataclasses, enums, dicts
and sequences into sorted-key JSON before hashing, so hash equality means
configuration equality regardless of field declaration order.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass

from repro.common.stable_json import canonical_json
from repro.obs.metrics import ObservabilityError


def _canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-stable value tree (sorted, enum-resolved)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in sorted(dataclasses.fields(obj), key=lambda f: f.name)
        }
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value)
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    text = repr(obj)
    if " at 0x" in text:
        # A default object repr embeds the memory address — hashing it would
        # silently break the byte-stable-manifest contract.
        raise ObservabilityError(
            f"cannot canonicalise {type(obj).__name__} for config hashing: "
            "give it a stable repr or reduce it to dataclasses/plain values"
        )
    return text


def config_hash(config: object) -> str:
    """A short, stable content hash of any configuration value tree."""
    return canonical_hash(_canonical(config))


def canonical_hash(tree: object) -> str:
    """:func:`config_hash` of a value tree that is already canonical: plain
    JSON values, dicts keyed by strings, no enums or dataclasses."""
    payload = canonical_json(tree)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce (and trust) one experiment run."""

    scenario: str
    seed: int
    config_hash: str
    slider: int | None = None
    version: str = ""

    @classmethod
    def create(
        cls,
        scenario: str,
        seed: int,
        config: object,
        slider: int | None = None,
    ) -> "RunManifest":
        # Imported lazily: repro/__init__ transitively imports modules that
        # import repro.obs, so a top-level import here would be circular.
        from repro import __version__

        return cls(
            scenario=scenario,
            seed=int(seed),
            config_hash=config_hash(config),
            slider=None if slider is None else int(slider),
            version=__version__,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "slider": self.slider,
            "version": self.version,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())
