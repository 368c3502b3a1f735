"""Determinism rules: the invariants that keep replay bit-reproducible.

The cost model's savings estimates (§5) and the smart model's audit trail
are only trustworthy because a run is a pure function of ``(scenario,
seed)``.  These rules reject the constructs that silently break that:
wall-clock reads, unregistered randomness, colliding RNG stream names,
float-equality on simulated time, and iteration order leaking out of sets.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register


def _walk_source_order(tree: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` is breadth-first; sort by position so 'first occurrence'
    semantics (R003) and output order match the file's reading order."""
    nodes = [n for n in ast.walk(tree) if hasattr(n, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return iter(nodes)


@register
class WallClockRule(Rule):
    """R001: no wall-clock time.

    All simulation time is float seconds from ``repro.common.simtime``; a
    single ``time.time()`` makes two replays of the same scenario diverge.
    Banning the read bans every value derived from it; a suppressed read
    (``ResourceProbe``'s stage timer) answers for where its value goes.
    """

    rule_id = "R001"
    name = "no-wall-clock"
    severity = "error"
    summary = (
        "wall-clock reads (time.time, time.monotonic, datetime.now/utcnow, ...) "
        "are forbidden; use simulation time from repro.common.simtime"
    )

    FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.localtime",
            "time.gmtime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified(node.func)
            if qualified in self.FORBIDDEN:
                yield ctx.finding(
                    self,
                    node,
                    f"call to {qualified}() reads the wall clock; simulated "
                    "components must take time as a parameter "
                    "(repro.common.simtime float seconds)",
                )


@register
class RngSourceRule(Rule):
    """R002: all randomness flows through ``RngRegistry`` named streams.

    A module-level ``random``/``np.random`` draw consumes hidden global
    state: adding one draw anywhere reshuffles every later draw, which is
    exactly the cross-component coupling named streams exist to prevent.
    ``repro/common/rng.py`` is the one legitimate construction site.  A
    ``numpy.random`` name used as a value (``mk = np.random.default_rng``)
    is flagged too: the call through the alias would escape the call check.
    Annotations (``rng: np.random.Generator``) are not values.
    """

    rule_id = "R002"
    name = "rng-via-registry"
    severity = "error"
    summary = (
        "no `import random`, np.random.default_rng/seed/RandomState calls or "
        "aliases, or other ambient entropy (uuid4, os.urandom) outside "
        "repro/common/rng.py; draw from RngRegistry.stream(name)"
    )

    EXEMPT_SUFFIXES = ("repro/common/rng.py",)
    FORBIDDEN_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom"})

    @staticmethod
    def _callees_and_annotations(tree: ast.Module) -> set[int]:
        """Ids of the nodes where a ``numpy.random`` name is not a value: a
        call's callee chain, and everything inside a type annotation."""
        skip: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = node.func
                while isinstance(chain, ast.Attribute):
                    skip.add(id(chain))
                    chain = chain.value
                skip.add(id(chain))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotation = node.returns
            else:  # ast.arg and ast.AnnAssign
                annotation = getattr(node, "annotation", None)
            if annotation is not None:
                skip.update(id(sub) for sub in ast.walk(annotation))
        return skip

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.endswith(self.EXEMPT_SUFFIXES):
            return
        not_values = self._callees_and_annotations(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if id(node) in not_values or not isinstance(node.ctx, ast.Load):
                    continue
                qualified = ctx.qualified(node) or ""
                if qualified.startswith("numpy.random.") and qualified.count(".") == 2:
                    yield ctx.finding(
                        self,
                        node,
                        f"{qualified} used as a value (an alias, not a call or "
                        "annotation) carries a generator constructor past the "
                        "seed registry; obtain a generator via "
                        "RngRegistry.stream(name)",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] in ("random", "secrets"):
                        yield ctx.finding(
                            self,
                            node,
                            f"`import {alias.name}` pulls ambient global randomness; "
                            "use RngRegistry.stream(name) from repro.common.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").partition(".")[0] in (
                    "random",
                    "secrets",
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"`from {node.module} import ...` pulls ambient global "
                        "randomness; use RngRegistry.stream(name)",
                    )
            elif isinstance(node, ast.Call):
                qualified = ctx.qualified(node.func)
                if qualified is None:
                    continue
                if qualified.startswith("numpy.random.") or qualified in self.FORBIDDEN_CALLS:
                    yield ctx.finding(
                        self,
                        node,
                        f"direct call to {qualified}() bypasses the seed registry; "
                        "obtain a generator via RngRegistry.stream(name) "
                        "(constructed only in repro/common/rng.py)",
                    )


@register
class StreamNameRule(Rule):
    """R003: RNG stream names are string literals, unique per file.

    ``stream("workload.bi")`` copy-pasted under a second component silently
    *correlates* two supposedly independent streams — the draws interleave
    on one generator.  Dynamic names hide that collision from review, so
    names must be literals, and a literal may appear at only one call-site
    per file (deliberate per-entity f-strings carry a suppression).
    """

    rule_id = "R003"
    name = "stream-name-literal-unique"
    severity = "error"
    summary = (
        "RngRegistry.stream(...) names must be string literals and appear at "
        "only one call-site per file (collisions correlate streams)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        first_site: dict[str, int] = {}
        for node in _walk_source_order(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
                if name in first_site and first_site[name] != node.lineno:
                    yield ctx.finding(
                        self,
                        node,
                        f"stream name {name!r} already used on line "
                        f"{first_site[name]}; reusing a name correlates the "
                        "two call-sites' draws — pick a distinct name",
                    )
                else:
                    first_site.setdefault(name, node.lineno)
            else:
                kind = "f-string" if isinstance(arg, ast.JoinedStr) else "non-literal"
                yield ctx.finding(
                    self,
                    node,
                    f"stream name is a {kind} expression; names must be string "
                    "literals so collisions are visible in review (suppress "
                    "deliberate per-entity names with a justification)",
                )


@register
class SimtimeEqualityRule(Rule):
    """R004: no ``==``/``!=`` between simulated-time floats.

    Simulated timestamps are sums of float durations; equality comparisons
    are representation-dependent and break replay the moment an arithmetic
    reordering changes the last ulp.  Compare with an explicit tolerance
    (``abs(a - b) <= eps``, ``math.isclose``) or use ordering operators.
    """

    rule_id = "R004"
    name = "no-simtime-float-equality"
    severity = "warning"
    summary = (
        "==/!= on simulated-time floats (*_time names, simtime MINUTE/HOUR/"
        "DAY/WEEK/MONTH constants) is ulp-fragile; compare with a tolerance"
    )

    _CONSTANTS = frozenset(
        f"repro.common.simtime.{name}" for name in ("MINUTE", "HOUR", "DAY", "WEEK", "MONTH")
    )

    def _is_timelike(self, ctx: FileContext, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            terminal: str | None = None
            if isinstance(node, ast.Name):
                terminal = node.id
            elif isinstance(node, ast.Attribute):
                terminal = node.attr
            if terminal is not None and terminal.endswith("_time"):
                return True
            if isinstance(node, (ast.Name, ast.Attribute)):
                if ctx.qualified(node) in self._CONSTANTS:
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None`-style sentinel checks are not float equality.
                if any(
                    isinstance(side, ast.Constant) and not isinstance(side.value, (int, float))
                    for side in (left, right)
                ):
                    continue
                if self._is_timelike(ctx, left) or self._is_timelike(ctx, right):
                    yield ctx.finding(
                        self,
                        node,
                        "equality comparison on a simulated-time value; use "
                        "`abs(a - b) <= tol`, math.isclose, or ordering "
                        "comparisons instead",
                    )
                    break  # one finding per Compare node


@register
class SetIterationRule(Rule):
    """R008: unordered iteration must not feed ordered outputs.

    ``for x in set(...)`` order depends on hash seeding and insertion
    history, and ``os.listdir``/``glob``/``Path.iterdir`` order on the
    filesystem; any telemetry row, ledger line, or report built from either
    is nondeterministic across runs.  Wrap in ``sorted(...)`` before
    iterating; ``sorted``/``min``/``max`` with ``key=`` keep key-tied
    elements in input order, so they read it too.  Tracking is per scope: a
    name assigned an unordered value stays unordered, and a method also
    knows the set-valued attributes its class's ``__init__`` assigns.
    """

    rule_id = "R008"
    name = "no-unordered-set-iteration"
    severity = "error"
    summary = (
        "iterating a set or an unsorted filesystem listing (for/comprehension/"
        "list()/tuple()/join) leaks its order into outputs; wrap in sorted(...) first"
    )

    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter"})
    _LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"})
    _LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})
    #: Consumers whose result does not depend on the order they read.
    _ORDER_FREE = frozenset({"sorted", "set", "frozenset", "any", "all"})
    #: Consumers that, given ``key=``, keep key-tied elements in input order.
    _KEYED = frozenset({"sorted", "min", "max"})

    def _is_set_expr(self, ctx: FileContext, node: ast.AST, set_vars: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, (ast.Name, ast.Attribute)) and dotted_name(node) in set_vars:
            return True
        if isinstance(node, ast.Call):
            qualified = ctx.qualified(node.func)
            if qualified in ("set", "frozenset") or qualified in self._LISTING_CALLS:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in self._LISTING_METHODS:
                    return True
                # set.union / intersection / difference chains
                if node.func.attr in (
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                ):
                    return self._is_set_expr(ctx, node.func.value, set_vars)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(ctx, node.left, set_vars) or self._is_set_expr(
                ctx, node.right, set_vars
            )
        return False

    def _scope_set_vars(
        self, ctx: FileContext, body: list[ast.stmt], seed: frozenset[str] = frozenset()
    ) -> set[str]:
        """Names (and ``self.x`` attributes) assigned an unordered value
        anywhere in this scope, starting from ``seed``."""
        names: set[str] = set(seed)
        stack = list(reversed(body))
        while stack:
            node = stack.pop()
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(reversed(list(ast.iter_child_nodes(node))))  # own scope only
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if self._is_set_expr(ctx, value, names):
                for target in targets:
                    name = dotted_name(target)
                    if isinstance(target, ast.Name) or (name or "").startswith("self."):
                        names.add(name)
        return names

    def _init_attrs(self, ctx: FileContext, cls: ast.ClassDef) -> frozenset[str]:
        """The ``self.x`` attributes ``cls.__init__`` assigns a set."""
        for member in cls.body:
            if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                names = self._scope_set_vars(ctx, member.body)
                return frozenset(name for name in names if name.startswith("self."))
        return frozenset()

    def _check_scope(
        self, ctx: FileContext, body: list[ast.stmt], seed: frozenset[str]
    ) -> Iterator[Finding]:
        set_vars = self._scope_set_vars(ctx, body, seed)

        def keyed(call: ast.Call) -> bool:
            return ctx.qualified(call.func) in self._KEYED and any(
                kw.arg == "key" for kw in call.keywords
            )

        # Direct arguments of an order-free consumer: sorted(x for x in s).
        order_free = {
            id(arg)
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            and ctx.qualified(node.func) in self._ORDER_FREE and not keyed(node)
            for arg in node.args
        }

        def flag(node: ast.AST, what: str) -> Finding:
            return ctx.finding(
                self,
                node,
                f"{what} iterates a set or an unsorted filesystem listing — "
                "its order differs across runs; wrap it in sorted(...)",
            )

        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.For) and self._is_set_expr(ctx, node.iter, set_vars):
                    yield flag(node, "for-loop")
                # Building another unordered container (a set or dict
                # comprehension) is fine.
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    if id(node) in order_free:
                        continue
                    for gen in node.generators:
                        if self._is_set_expr(ctx, gen.iter, set_vars):
                            yield flag(node, "comprehension")
                elif isinstance(node, ast.Call) and id(node) not in order_free:
                    qualified = ctx.qualified(node.func)
                    is_join = isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                    if (qualified in self._MATERIALIZERS or is_join or keyed(node)) and node.args:
                        if self._is_set_expr(ctx, node.args[0], set_vars):
                            what = f"{qualified}(key=...)" if keyed(node) else f"{qualified}()"
                            yield flag(node, "str.join" if is_join else what)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # Each function body is its own tracking scope; module level too.
        # ast.walk reaches a class before its methods.
        scopes: list[tuple[list[ast.stmt], frozenset[str]]] = [(ctx.tree.body, frozenset())]
        class_attrs: dict[int, frozenset[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                attrs = self._init_attrs(ctx, node)
                for member in node.body:
                    class_attrs[id(member)] = attrs
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node.body, class_attrs.get(id(node), frozenset())))
        seen: set[tuple[int, int, str]] = set()
        for body, seed in scopes:
            for finding in self._check_scope(ctx, body, seed):
                key = (finding.line, finding.col, finding.message)
                if key not in seen:  # nested scopes overlap via ast.walk
                    seen.add(key)
                    yield finding


@register
class ResourceQuarantineRule(Rule):
    """R018: process-resource reads live only in the quarantine module.

    ``ResourceProbe`` (``repro/obs/stream.py``) is the one sanctioned place
    that reads wall-clock stage costs, ``getrusage`` peaks, or allocator
    state, and its report lands exclusively in a ``.resources.json``
    sidecar.  A ``tracemalloc``/``getrusage`` read anywhere else in the
    library is one refactor away from leaking a machine-dependent number
    into the byte-identity surface (trace/metrics/series/store exports),
    so the rule rejects it at the read site.  Benchmarks and tests are out
    of scope: measuring memory there is the point.
    """

    rule_id = "R018"
    name = "resource-quarantine"
    severity = "error"
    summary = (
        "process-resource reads (resource.getrusage, tracemalloc.*, os.times, "
        "os.getloadavg) are allowed only in repro/obs/stream.py (ResourceProbe); "
        "their output belongs in the .resources.json sidecar, never in exports"
    )

    EXEMPT_SUFFIXES = ("repro/obs/stream.py",)
    FORBIDDEN_CALLS = frozenset(
        {
            "resource.getrusage",
            "os.times",
            "os.getloadavg",
            "sys.getallocatedblocks",
        }
    )
    FORBIDDEN_PREFIXES = ("tracemalloc.", "psutil.")

    def _applies(self, path: str) -> bool:
        return "repro/" in path and not path.endswith(self.EXEMPT_SUFFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._applies(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified(node.func)
            if qualified is None:
                continue
            if qualified in self.FORBIDDEN_CALLS or qualified.startswith(
                self.FORBIDDEN_PREFIXES
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"call to {qualified}() reads process-resource state "
                    "outside the quarantine; route it through ResourceProbe "
                    "(repro/obs/stream.py) so it stays in the "
                    ".resources.json sidecar",
                )


@register
class DurableWriteDisciplineRule(Rule):
    """R019: durable control-plane artifacts go through the atomic helpers.

    The crash-consistency contract (docs/ROBUSTNESS.md §v2) holds because
    every durable write is tmp-file + ``os.replace`` or framed-append —
    both provided by ``repro/durability/io.py`` and nothing else.  A bare
    ``open(path, "w")``/``write_text``/``np.savez`` in the durability or
    core layers is a torn-file window: a crash mid-write leaves bytes no
    restore can trust, and the corruption corpus tests cannot anticipate
    an unframed writer.  The rule scopes to ``repro/durability/`` and
    ``repro/core/`` — the layers that own durable state; everything else
    (obs sidecars, portal reports, CLI output files) is export surface,
    rewritten from scratch every run, where atomicity buys nothing.
    """

    rule_id = "R019"
    name = "durable-write-discipline"
    severity = "error"
    summary = (
        "durable artifacts in repro/durability/ and repro/core/ must be "
        "written via the atomic helpers in repro/durability/io.py "
        "(atomic_write_text/bytes, append_journal_entry), "
        "never bare open(..., 'w'), write_text/write_bytes, or np.savez"
    )

    SCOPED_SEGMENTS = ("repro/durability/", "repro/core/")
    EXEMPT_SUFFIXES = ("repro/durability/io.py",)
    WRITE_ATTRS = frozenset({"write_text", "write_bytes"})
    SAVEZ_CALLS = frozenset({"numpy.savez", "numpy.savez_compressed"})

    def _applies(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        if normalized.endswith(self.EXEMPT_SUFFIXES):
            return False
        return any(segment in normalized for segment in self.SCOPED_SEGMENTS)

    @staticmethod
    def _open_write_mode(node: ast.Call) -> str | None:
        """The mode literal when this is ``open(...)`` with a write mode."""
        mode: ast.AST | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return None  # default "r": a read, not a write
        if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
            return "<dynamic>"  # can't prove it's a read; flag it
        return mode.value if set(mode.value) & set("wax+") else None

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._applies(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified(node.func)
            if qualified == "open" or qualified == "io.open":
                mode = self._open_write_mode(node)
                if mode is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"open(..., {mode!r}) writes a durable artifact "
                        "directly; a crash mid-write tears the file — use "
                        "the atomic helpers in repro.durability.io",
                    )
                continue
            if qualified in self.SAVEZ_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"{qualified}() writes an archive non-atomically; save "
                    "it to a buffer and publish the bytes with "
                    "atomic_write_bytes from repro.durability.io",
                )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.WRITE_ATTRS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f".{node.func.attr}() writes a durable artifact "
                    "directly; a crash mid-write tears the file — use "
                    "atomic_write_text/atomic_write_bytes from "
                    "repro.durability.io",
                )


@register
class OnePercentileRule(Rule):
    """R020: library percentiles go through ``repro.common.stats``.

    ``percentile``/``summarize`` sort once and interpolate in pure Python,
    bit-identical to numpy's linear method and without numpy's per-call
    dispatch on short windows.  A direct ``numpy.percentile`` or
    ``numpy.quantile`` elsewhere in the library is a second path: slower on
    the windows Algorithm 1 reads every tick, and one keyword argument
    (``method=``) away from exporting different bits for the same p99.
    ``repro/common/stats.py`` is exempt; benchmarks and tests are out of
    scope (they use numpy as the oracle).
    """

    rule_id = "R020"
    name = "one-percentile"
    severity = "error"
    summary = (
        "numpy percentile/quantile functions are allowed only in "
        "repro/common/stats.py; call repro.common.stats.percentile or "
        "summarize instead"
    )

    EXEMPT_SUFFIXES = ("repro/common/stats.py",)
    FORBIDDEN = frozenset(
        {"numpy.percentile", "numpy.quantile", "numpy.nanpercentile", "numpy.nanquantile"}
    )

    def _applies(self, path: str) -> bool:
        return "repro/" in path and not path.endswith(self.EXEMPT_SUFFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._applies(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualified = ctx.qualified(node)
            if qualified in self.FORBIDDEN:
                yield ctx.finding(
                    self,
                    node,
                    f"{qualified} is a second percentile path; use "
                    "repro.common.stats.percentile (sort once, "
                    "bit-identical to numpy's linear method)",
                )
