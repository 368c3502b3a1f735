"""Module import graph: cycle detection and the rendered graph artifact.

The graph has two granularities.  Cycle detection runs on the *module*
graph (``repro.core.optimizer`` -> ``repro.learning.env``), because that is
where a cycle is an actual import-time hazard.  The rendered artifact
aggregates to the *first-level subpackage* graph (``core`` -> ``learning``)
— the granularity the layering contract is declared at — with lazy /
typing-only edges drawn dashed so deliberate cycle breakers stay visible
instead of vanishing.

All output is byte-stable: nodes and edges are emitted in sorted order.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.project import Project


def module_graph(project: Project, package: str) -> dict[str, set[str]]:
    """Top-level (import-time) edges between modules of ``package``."""
    prefix = package + "."
    graph: dict[str, set[str]] = {}
    for info in project.sorted_modules():
        if not (info.name == package or info.name.startswith(prefix)):
            continue
        targets = graph.setdefault(info.name, set())
        for edge in info.edges:
            if edge.lazy or edge.typing_only:
                continue
            if edge.target == info.name:
                continue
            if edge.target == package or edge.target.startswith(prefix):
                if edge.target in project.modules:
                    targets.add(edge.target)
    return graph


def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components with more than one node (plus
    self-loops), as sorted module lists; the result itself is sorted so
    repeated runs render identically (Tarjan, iterative)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sorted(sccs)


def first_level(package: str, module: str) -> str | None:
    """First-level subpackage of ``module`` under ``package``; None for the
    root module itself (``repro``/``repro.__init__`` re-exports are exempt)."""
    if module == package:
        return None
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == package else None


def package_edges(
    project: Project, package: str
) -> dict[tuple[str, str], dict[str, bool]]:
    """Aggregated first-level edges: ``(src, dst) -> {"solid": bool, "lazy": bool}``."""
    prefix = package + "."
    out: dict[tuple[str, str], dict[str, bool]] = {}
    for info in project.sorted_modules():
        src = first_level(package, info.name)
        if src is None:
            continue
        for edge in info.edges:
            if not (edge.target == package or edge.target.startswith(prefix)):
                continue
            dst = first_level(package, edge.target)
            if dst is None or dst == src:
                continue
            entry = out.setdefault((src, dst), {"solid": False, "lazy": False})
            if edge.lazy or edge.typing_only:
                entry["lazy"] = True
            else:
                entry["solid"] = True
    return out


def to_dot(project: Project, package: str, layers: Iterable[Iterable[str]] = ()) -> str:
    """Graphviz DOT for the first-level subpackage graph.

    Layers (bottom-up) become ``rank=same`` groups; lazy-only edges are
    dashed.  The text is byte-stable across runs.
    """
    edges = package_edges(project, package)
    nodes = sorted({n for pair in edges for n in pair})
    lines = [
        f'digraph "{package}" {{',
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for i, layer in enumerate(layers):
        members = sorted(set(layer) & set(nodes))
        if members:
            quoted = "; ".join(f'"{m}"' for m in members)
            lines.append(f"  {{ rank=same; {quoted} }}  // layer {i}")
    for node in nodes:
        lines.append(f'  "{node}";')
    for (src, dst) in sorted(edges):
        kinds = edges[(src, dst)]
        style = ' [style=dashed, label="lazy"]' if not kinds["solid"] else ""
        lines.append(f'  "{src}" -> "{dst}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_markdown(project: Project, package: str) -> str:
    """Markdown table of the first-level subpackage graph (byte-stable)."""
    edges = package_edges(project, package)
    by_src: dict[str, list[str]] = {}
    for (src, dst), kinds in sorted(edges.items()):
        label = dst if kinds["solid"] else f"{dst} (lazy)"
        by_src.setdefault(src, []).append(label)
    lines = [
        f"# Import graph: `{package}`",
        "",
        "| subpackage | imports |",
        "|---|---|",
    ]
    for src in sorted(by_src):
        lines.append(f"| `{src}` | {', '.join(f'`{d}`' for d in by_src[src])} |")
    return "\n".join(lines) + "\n"
