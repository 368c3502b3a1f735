"""Whole-program project model: every file parsed once, imports resolved.

Per-file rules see one :class:`~repro.lint.context.FileContext` at a time;
whole-program rules need the *project* — the set of modules, the import
edges between them (classified top-level / lazy / typing-only), and the
class hierarchy across files.  :class:`Project` builds all of that in a
single deterministic sweep, and both kinds of rule share its one parse.

Module names are derived from the filesystem by climbing ``__init__.py``
parents, so ``src/repro/core/actuator.py`` becomes ``repro.core.actuator``
regardless of which directory the linter was pointed at.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.lint.context import FileContext, dotted_name

#: Directory names never descended into.
_SKIP_DIRS = frozenset({".git", "__pycache__", ".pytest_cache", ".venv", "node_modules", "results"})


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a dotted module target.

    ``lazy`` marks function-scoped imports (deliberate cycle breakers that
    do not execute at import time); ``typing_only`` marks imports under
    ``if TYPE_CHECKING:`` (they never execute at all).  Neither kind
    participates in the layering contract or cycle detection, but both are
    kept so the graph artifact can render them as dashed edges.
    """

    source: str  # importing module (dotted)
    target: str  # imported module (dotted, best-effort resolved)
    line: int
    col: int
    lazy: bool = False
    typing_only: bool = False


@dataclass
class ModuleInfo:
    """One parsed module and its outgoing imports."""

    name: str
    ctx: FileContext
    is_package: bool = False
    edges: list[ImportEdge] = field(default_factory=list)


@dataclass(frozen=True)
class ClassInfo:
    """A module-level class definition and its (resolved) base names."""

    qualname: str  # module.ClassName
    module: str
    name: str
    bases: tuple[str, ...]  # dotted, import-resolved; may be local names
    line: int


def iter_python_files(paths: Sequence[str | pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    out.add(sub)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name for ``path``, climbing ``__init__.py`` parents."""
    if path.name == "__init__.py":
        parts: list[str] = []
        directory = path.parent
    else:
        parts = [path.stem]
        directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        directory = directory.parent
    return ".".join(parts) if parts else path.stem


def _is_type_checking_test(ctx: FileContext, test: ast.expr) -> bool:
    name = ctx.qualified(test)
    return name is not None and name.split(".")[-1] == "TYPE_CHECKING"


def _facade_modules(ctx: FileContext, value: ast.expr) -> list[ast.Constant]:
    """The module keys of a lazy package facade's table
    (``facade(__name__, {"pkg.mod": (...), ...})``, see
    ``repro.common.facade``); empty for any other expression."""
    if not (isinstance(value, ast.Call) and len(value.args) == 2):
        return []
    name = ctx.qualified(value.func)
    table = value.args[1]
    if name is None or name.split(".")[-1] != "facade" or not isinstance(table, ast.Dict):
        return []
    return [
        key for key in table.keys if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


class Project:
    """All files under the linted paths, with resolved import edges.

    ``files`` holds every parsed file in path order (what per-file rules
    see); ``modules`` maps dotted names to modules (what whole-program
    rules see — two files with one dotted name keep the later one).
    """

    def __init__(self) -> None:
        self.files: list[FileContext] = []
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.errors: list[str] = []
        self.files_scanned: int = 0

    # ------------------------------------------------------------ construction
    @classmethod
    def load(cls, paths: Sequence[str | pathlib.Path]) -> "Project":
        project = cls()
        for raw in paths:
            if not pathlib.Path(raw).exists():
                project.errors.append(
                    f"{pathlib.Path(raw).as_posix()}: no such file or directory"
                )
        for path in iter_python_files(paths):
            project.files_scanned += 1
            try:
                source = path.read_text(encoding="utf-8")
                ctx = FileContext.from_source(source, path.as_posix())
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                project.errors.append(f"{path.as_posix()}: {exc}")
                continue
            project.add_module(
                module_name_for(path), ctx, is_package=path.name == "__init__.py"
            )
        project._resolve_edges()
        return project

    @classmethod
    def from_context(cls, ctx: FileContext) -> "Project":
        """A one-file project; the module is named after ``ctx.path``."""
        project = cls()
        project.files_scanned = 1
        name = str(pathlib.PurePosixPath(ctx.path).with_suffix(""))
        project.add_module(name.replace("/", "."), ctx)
        project._resolve_edges()
        return project

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build a project from ``{dotted_module_name: source}`` (tests)."""
        project = cls()
        for name in sorted(sources):
            path = name.replace(".", "/") + ".py"
            project.files_scanned += 1
            try:
                ctx = FileContext.from_source(sources[name], path)
            except SyntaxError as exc:
                project.errors.append(f"{path}: {exc}")
                continue
            project.add_module(name, ctx)
        project._resolve_edges()
        return project

    def add_module(self, name: str, ctx: FileContext, is_package: bool = False) -> None:
        self.files.append(ctx)
        info = ModuleInfo(name=name, ctx=ctx, is_package=is_package)
        self._collect_imports(info, ctx.tree.body, lazy=False, typing_only=False)
        self._collect_classes(info)
        self.modules[name] = info

    # -------------------------------------------------------------- accessors
    def sorted_modules(self) -> list[ModuleInfo]:
        return [self.modules[name] for name in sorted(self.modules)]

    def resolve_module(self, target: str) -> str | None:
        """Longest known module prefix of ``target`` (imports of attributes
        resolve to their defining module), or None for external targets."""
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # ------------------------------------------------------- import collection
    def _collect_imports(
        self,
        info: ModuleInfo,
        body: Sequence[ast.stmt],
        lazy: bool,
        typing_only: bool,
    ) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.edges.append(
                        ImportEdge(
                            source=info.name,
                            target=alias.name,
                            line=node.lineno,
                            col=node.col_offset,
                            lazy=lazy,
                            typing_only=typing_only,
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        target = base
                    else:
                        # ``from pkg import name``: name may be a submodule
                        # or an attribute; record the longer candidate and
                        # let _resolve_edges trim it to a known module.
                        target = f"{base}.{alias.name}" if base else alias.name
                    info.edges.append(
                        ImportEdge(
                            source=info.name,
                            target=target,
                            line=node.lineno,
                            col=node.col_offset,
                            lazy=lazy,
                            typing_only=typing_only,
                        )
                    )
            elif isinstance(node, ast.Assign):
                # A facade's table stands for the eager re-exports it
                # replaced: its modules are edges of the package, so the
                # layering contract still sees what a package exports.
                for key in _facade_modules(info.ctx, node.value):
                    info.edges.append(
                        ImportEdge(
                            source=info.name,
                            target=key.value,
                            line=key.lineno,
                            col=key.col_offset,
                            lazy=lazy,
                            typing_only=typing_only,
                        )
                    )
            elif isinstance(node, ast.If):
                branch_typing = typing_only or _is_type_checking_test(info.ctx, node.test)
                self._collect_imports(info, node.body, lazy, branch_typing)
                self._collect_imports(info, node.orelse, lazy, typing_only)
            elif isinstance(node, ast.Try):
                for sub in (node.body, node.orelse, node.finalbody):
                    self._collect_imports(info, sub, lazy, typing_only)
                for handler in node.handlers:
                    self._collect_imports(info, handler.body, lazy, typing_only)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_imports(info, node.body, lazy=True, typing_only=typing_only)
            elif isinstance(node, ast.ClassDef):
                # Class bodies execute at import time: same flags.
                self._collect_imports(info, node.body, lazy, typing_only)
            elif isinstance(node, (ast.With, ast.AsyncWith, ast.For, ast.While)):
                self._collect_imports(info, node.body, lazy, typing_only)

    @staticmethod
    def _resolve_from_base(info: ModuleInfo, node: ast.ImportFrom) -> str | None:
        """Absolute dotted base package for a ``from ... import`` statement."""
        if node.level == 0:
            return node.module or None
        # Relative import: start from the containing package.  For a plain
        # module that is everything but its last name component; a package
        # (``__init__.py``) *is* its own containing package, so it drops one
        # component fewer.
        parts = info.name.split(".")
        drop = node.level - 1 if info.is_package else node.level
        if len(parts) < drop:
            return None
        base_parts = parts[: len(parts) - drop] if drop else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _resolve_edges(self) -> None:
        """Trim from-import attribute targets down to known modules."""
        for name in sorted(self.modules):
            info = self.modules[name]
            resolved: list[ImportEdge] = []
            for edge in info.edges:
                target = self.resolve_module(edge.target)
                if target is not None and target != edge.target:
                    edge = ImportEdge(
                        source=edge.source,
                        target=target,
                        line=edge.line,
                        col=edge.col,
                        lazy=edge.lazy,
                        typing_only=edge.typing_only,
                    )
                resolved.append(edge)
            info.edges = resolved

    # --------------------------------------------------------- class hierarchy
    def _collect_classes(self, info: ModuleInfo) -> None:
        for node in info.ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases: list[str] = []
            for base in node.bases:
                name = info.ctx.qualified(base) or dotted_name(base)
                if name is not None:
                    bases.append(name)
            qualname = f"{info.name}.{node.name}"
            self.classes[qualname] = ClassInfo(
                qualname=qualname,
                module=info.name,
                name=node.name,
                bases=tuple(bases),
                line=node.lineno,
            )

    def resolve_class(self, module: str, name: str) -> ClassInfo | None:
        """Look up a class by its (possibly local) dotted name as seen from
        ``module``: fully-qualified names match directly, bare names match a
        class defined in the same module."""
        if name in self.classes:
            return self.classes.get(name)
        if "." not in name:
            return self.classes.get(f"{module}.{name}")
        return None
