"""R012: the declared architecture contract over the import graph.

The contract assigns every first-level subpackage of the analyzed root
package to a layer (bottom-up).  A module may import (at import time) only
from its own layer or below; function-scoped ("lazy") imports and
``if TYPE_CHECKING:`` imports are exempt — they are the sanctioned way to
break a cycle, and the graph artifact renders them dashed so they stay
reviewable.  Import cycles between modules are always a violation,
whatever the layers say.

The shipped contract for ``repro`` mirrors DESIGN.md: ``common`` at
the bottom; ``warehouse``/``workloads`` below ``costmodel``; ``core``
below ``experiments``/``portal``; ``obs``, ``faults`` and ``parallel``
confined per R009/R011.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.graph import find_cycles, first_level, module_graph
from repro.lint.project import Project
from repro.lint.rules import Rule, register

RULE_ID = "R012"


@dataclass(frozen=True)
class LayerContract:
    """Bottom-up layer assignment for one root package."""

    package: str
    layers: tuple[tuple[str, ...], ...]

    def rank(self, first_level: str) -> int | None:
        for i, layer in enumerate(self.layers):
            if first_level in layer:
                return i
        return None


#: The architecture contract for the repro codebase itself.
REPRO_CONTRACT = LayerContract(
    package="repro",
    layers=(
        ("common",),
        ("lint", "obs"),
        ("warehouse", "workloads"),
        ("costmodel", "durability", "faults"),
        ("learning",),
        ("core",),
        ("parallel",),
        ("experiments", "portal"),
        ("cli",),
    ),
)


@register
class LayeringRule(Rule):
    """R012: the import graph obeys the declared layer contract."""

    rule_id = RULE_ID
    name = "layering-contract"
    severity = "error"
    summary = "import-time imports obey the declared layer contract and form no cycles"

    def __init__(self, contract: LayerContract = REPRO_CONTRACT) -> None:
        self.contract = contract

    def check_project(self, project: Project) -> Iterable[Finding]:
        return check_layering(project, self.contract)


def check_layering(project: Project, contract: LayerContract) -> list[Finding]:
    """Layer violations and import cycles for ``contract.package``."""
    findings: list[Finding] = []
    prefix = contract.package + "."
    unknown_flagged: set[str] = set()
    for info in project.sorted_modules():
        src_level = first_level(contract.package, info.name)
        if src_level is None:
            continue
        src_rank = contract.rank(src_level)
        if src_rank is None:
            if src_level not in unknown_flagged:
                unknown_flagged.add(src_level)
                findings.append(
                    Finding(
                        file=info.ctx.path,
                        line=1,
                        col=0,
                        rule_id=RULE_ID,
                        severity="error",
                        message=(
                            f"subpackage {src_level!r} is not assigned to a layer "
                            "in the architecture contract; declare its place in "
                            "repro.lint.contract before importing it"
                        ),
                    )
                )
            continue
        for edge in info.edges:
            if edge.lazy or edge.typing_only:
                continue
            if not (edge.target == contract.package or edge.target.startswith(prefix)):
                continue
            dst_level = first_level(contract.package, edge.target)
            if dst_level is None or dst_level == src_level:
                continue
            dst_rank = contract.rank(dst_level)
            if dst_rank is None:
                continue  # flagged once via the unknown-subpackage finding
            if dst_rank > src_rank:
                findings.append(
                    Finding(
                        file=info.ctx.path,
                        line=edge.line,
                        col=edge.col,
                        rule_id=RULE_ID,
                        severity="error",
                        message=(
                            f"layering violation: {src_level!r} (layer {src_rank}) "
                            f"may not import {dst_level!r} (layer {dst_rank}); "
                            "invert the dependency or make it a lazy "
                            "function-scoped import"
                        ),
                    )
                )
    findings.extend(_cycle_findings(project, contract))
    return findings


def _cycle_findings(project: Project, contract: LayerContract) -> list[Finding]:
    graph = module_graph(project, contract.package)
    findings: list[Finding] = []
    for cycle in find_cycles(graph):
        members = set(cycle)
        anchor = cycle[0]  # lexicographically smallest member
        info = project.modules[anchor]
        edge = next(
            (e for e in info.edges if e.target in members and not e.lazy and not e.typing_only),
            None,
        )
        path = " -> ".join(cycle + [anchor])
        findings.append(
            Finding(
                file=info.ctx.path,
                line=edge.line if edge else 1,
                col=edge.col if edge else 0,
                rule_id=RULE_ID,
                severity="error",
                message=(
                    f"import cycle: {path}; break it by inverting one edge "
                    "or moving the shared vocabulary down a layer"
                ),
            )
        )
    return findings
