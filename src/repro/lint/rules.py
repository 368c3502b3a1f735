"""Rule plugin base class and the one rule registry.

A rule is a class with a stable ``rule_id`` (``R0xx``), a one-line
``summary``, and one of two hooks:

* ``check(ctx)`` — a per-file pass yielding :class:`Finding` objects for
  one :class:`~repro.lint.context.FileContext`;
* ``check_project(project)`` — a whole-program pass over the
  :class:`~repro.lint.project.Project` (import graph, class hierarchy,
  every module at once).

New rules self-register via the :func:`register` decorator; the engine
instantiates one fresh object per rule per run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding

if TYPE_CHECKING:
    from repro.lint.project import Project


class Rule:
    """Base class for all lint rules."""

    rule_id: ClassVar[str]
    name: ClassVar[str]
    summary: ClassVar[str]
    severity: ClassVar[str] = "error"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Per-file pass: yield findings for ``ctx``."""
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Whole-program pass: yield findings for the whole ``project``."""
        return ()


_REGISTRY: dict[str, Type[Rule]] = {}

#: Ids of deleted rules.  Ids are permanent: a retired id is never reused,
#: so an old suppression or report can never name a different rule.
RETIRED = frozenset({"R013", "R014", "R015"})


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rid = cls.rule_id
    if rid in RETIRED:
        raise ValueError(f"rule id {rid!r} is retired ({cls.__name__}); take the next free id")
    if rid in _REGISTRY and _REGISTRY[rid] is not cls:
        raise ValueError(f"duplicate rule id {rid!r} ({cls.__name__} vs {_REGISTRY[rid].__name__})")
    _REGISTRY[rid] = cls
    return cls


def all_rules() -> list[Type[Rule]]:
    """Registered rule classes, ordered by rule id (stable output order)."""
    _load_builtin()
    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate rules, optionally restricted to ``select`` ids."""
    classes = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {cls.rule_id for cls in classes}
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        classes = [cls for cls in classes if cls.rule_id in wanted]
    return [cls() for cls in classes]


def iter_rule_docs() -> Iterator[tuple[str, str, str, str]]:
    """(rule_id, name, severity, summary) rows for ``--list-rules``."""
    for cls in all_rules():
        yield cls.rule_id, cls.name, cls.severity, cls.summary


def _load_builtin() -> None:
    # Imported lazily to avoid a circular import at module load time
    # (builtin rule modules import `register` from here).
    from repro.lint import contract, determinism, exceptions, hygiene, pickles  # noqa: F401
