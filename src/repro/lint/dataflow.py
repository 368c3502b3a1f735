"""Determinism dataflow: R013 RNG provenance, R014 wall-clock taint,
R015 unordered-iteration hazards.

These are intra-procedural taint analyses: each scope (module body,
function body, method body) is walked once in statement order with an
environment mapping local names to taint tags.  The analysis is
deliberately best-effort — calls launder taint, control-flow branches are
walked sequentially without a join — because the goal is catching the
patterns the per-file rules structurally cannot see:

* R013 — an RNG constructed outside :class:`~repro.common.rng.RngRegistry`
  and then *drawn from*, including through a callable alias
  (``mk = np.random.default_rng; rng = mk(7)``) that the per-file R002
  qualified-name check cannot resolve.
* R014 — a wall-clock read whose *value* flows into persisted state, a
  span, or a payload (file writes, ``json``/``pickle`` dumps, recorder
  methods, ``to_dict``-style returns).  R001 already bans the read itself
  inside ``src``; this pass proves the value never escapes in code where
  the read is legitimate (tools, fixtures) and catches laundering through
  arithmetic and f-strings.
* R015 — unsorted filesystem enumeration (``os.listdir``, ``glob``,
  ``Path.glob/rglob/iterdir``) or set-valued instance attributes feeding
  ordered output: materialized into a list/tuple, joined, yielded, or
  appended inside a loop.  Wrapping in ``sorted()`` (or any
  order-insensitive consumer: ``set``, ``sum``, ``min``...) clears the tag.

One walk produces all three rules' findings; each rule keeps its own ids
(the walk runs once per project, see :meth:`Project.derived`).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.determinism import WallClockRule
from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.rules import Rule, register

RNG_RULE = "R013"
WALL_RULE = "R014"
ORDER_RULE = "R015"

#: RNG constructors that must only appear in repro/common/rng.py.
RNG_CTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.SeedSequence",
    }
)
#: Files where constructing RNGs is the whole point.
RNG_EXEMPT_SUFFIXES = ("repro/common/rng.py",)

#: Methods that draw from a generator (numpy Generator + random.Random).
DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "randint",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "standard_normal",
        "lognormal",
        "uniform",
        "exponential",
        "poisson",
        "binomial",
        "gamma",
        "beta",
    }
)

#: Wall-clock sources — shared with the per-file R001 rule.
WALL_CALLS = WallClockRule.FORBIDDEN

#: Unsorted filesystem enumeration.
FS_CALLS = frozenset({"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"})
FS_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Calls whose arguments are persisted verbatim.
SINK_CALLS = frozenset({"json.dump", "json.dumps", "pickle.dump", "pickle.dumps"})
#: Method names that persist or export their arguments.
SINK_METHODS = frozenset(
    {"write", "write_text", "writelines", "emit", "record", "record_event", "observe"}
)
#: Functions whose return value is a payload by convention.
PAYLOAD_FUNCS = frozenset({"to_dict", "to_payload", "to_json", "snapshot", "manifest", "payload"})

#: Consumers that are insensitive to input order (clear the R015 tag).
ORDER_NEUTRAL_CALLS = frozenset({"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"})
#: Materializers that freeze iteration order into output.
ORDER_MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})
#: Loop-body method calls that accumulate in iteration order.
ORDERED_EFFECTS = frozenset({"append", "extend", "insert", "write", "writelines"})

#: Builtins that pass taint through unchanged.
PASSTHROUGH = frozenset({"float", "int", "str", "repr", "round", "abs"})

_EMPTY: frozenset = frozenset()


def _without(tags: frozenset, dropped: str) -> frozenset:
    return frozenset(pair for pair in sorted(tags) if pair[0] != dropped)


def _lines(tags: frozenset, wanted: str) -> list:
    """Origin lines carrying ``wanted`` tag, ascending."""
    return [pair[1] for pair in sorted(tags) if pair[0] == wanted]


def check_dataflow(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for info in project.sorted_modules():
        ctx = info.ctx
        rng_exempt = ctx.path.endswith(RNG_EXEMPT_SUFFIXES)
        module_analyzer = _ScopeAnalyzer(ctx, findings, rng_exempt=rng_exempt)
        module_analyzer.run(
            [n for n in ctx.tree.body if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        )
        # Methods are analyzed through their class (so set-valued attribute
        # tracking applies); every other function is its own scope.
        method_ids = {
            id(member)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
            for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if id(node) not in method_ids:
                    _ScopeAnalyzer(
                        ctx, findings, rng_exempt=rng_exempt, func_name=node.name
                    ).run(node.body)
            elif isinstance(node, ast.ClassDef):
                _analyze_class(ctx, node, findings, rng_exempt=rng_exempt)
    findings.sort(key=Finding.sort_key)
    return findings


class _DataflowRule(Rule):
    """A rule reporting its own share of the one dataflow walk."""

    def check_project(self, project: Project) -> Iterable[Finding]:
        return [f for f in project.derived(check_dataflow) if f.rule_id == self.rule_id]


@register
class RngProvenanceRule(_DataflowRule):
    """R013: generators drawn from flow from the registry."""

    rule_id = RNG_RULE
    name = "rng-provenance"
    severity = "error"
    summary = (
        "generators drawn from must flow from RngRegistry/fallback_rng "
        "(catches aliased constructors the per-file R002 cannot resolve)"
    )


@register
class WallClockTaintRule(_DataflowRule):
    """R014: wall-clock values never reach persisted output."""

    rule_id = WALL_RULE
    name = "wallclock-taint"
    severity = "error"
    summary = "wall-clock values may not reach persisted state, spans, or payloads"


@register
class UnorderedIterationRule(_DataflowRule):
    """R015: no unsorted listing or set order frozen into output."""

    rule_id = ORDER_RULE
    name = "unordered-iteration"
    severity = "error"
    summary = (
        "unsorted filesystem listings / set-valued attributes may not be "
        "frozen into ordered output"
    )


def _analyze_class(
    ctx, node: ast.ClassDef, findings: list[Finding], rng_exempt: bool = False
) -> None:
    """Analyze methods, tracking set-valued ``self.x`` attributes (R015)."""
    attr_sets: dict[str, int] = {}
    for method in node.body:
        if isinstance(method, ast.FunctionDef) and method.name == "__init__":
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not _is_set_expr(stmt.value):
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attr_sets[target.attr] = stmt.lineno
    for method in node.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _ScopeAnalyzer(
                ctx,
                findings,
                rng_exempt=rng_exempt,
                func_name=method.name,
                attr_sets=attr_sets,
            ).run(method.body)


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


class _ScopeAnalyzer:
    """One forward pass over one scope's statements.

    Environment values are frozensets of ``(tag, origin_line)`` pairs; tags
    are ``"rng"`` (illegitimate generator), ``"rngctor"`` (aliased
    constructor), ``"wall"`` (wall-clock value), ``"fslist"`` (unsorted
    filesystem enumeration).
    """

    def __init__(
        self,
        ctx,
        findings: list[Finding],
        rng_exempt: bool = False,
        func_name: str | None = None,
        attr_sets: dict[str, int] | None = None,
    ):
        self.ctx = ctx
        self.findings = findings
        self.rng_exempt = rng_exempt
        self.func_name = func_name
        self.attr_sets = attr_sets or {}
        self.env: dict[str, frozenset] = {}

    # ----------------------------------------------------------------- driver
    def run(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                file=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=rule_id,
                severity="error",
                message=message,
            )
        )

    # ------------------------------------------------------------- statements
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            tags = self._eval(stmt.value)
            ctor_tags = self._callable_alias_tags(stmt.value)
            for target in stmt.targets:
                self._bind(target, tags | ctor_tags)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            tags = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.env.get(stmt.target.id, _EMPTY) | tags
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            tags = self._eval(stmt.value)
            walls = _lines(tags, "wall")
            if walls and self.func_name in PAYLOAD_FUNCS:
                self._emit(
                    WALL_RULE,
                    stmt,
                    f"wall-clock value (read at line {min(walls)}) returned from "
                    f"payload function {self.func_name}(); payloads must carry "
                    "simulation time only",
                )
        elif isinstance(stmt, ast.For):
            self._for_stmt(stmt)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tags)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Nested function/class defs are analyzed as their own scopes by the
        # module-level driver; nothing to do here.

    def _bind(self, target: ast.expr, tags: frozenset) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tags)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tags)

    def _for_stmt(self, stmt: ast.For) -> None:
        iter_tags = self._eval(stmt.iter, order_sink_ok=True)
        ordered = _has_ordered_effect(stmt.body)
        fs_lines = _lines(iter_tags, "fslist")
        if fs_lines and ordered:
            self._emit(
                ORDER_RULE,
                stmt.iter,
                f"iterating unsorted filesystem listing (from line {fs_lines[0]}) "
                "with order-dependent effects; wrap the listing in sorted()",
            )
        if (
            ordered
            and isinstance(stmt.iter, ast.Attribute)
            and isinstance(stmt.iter.value, ast.Name)
            and stmt.iter.value.id == "self"
            and stmt.iter.attr in self.attr_sets
        ):
            self._emit(
                ORDER_RULE,
                stmt.iter,
                f"iterating set-valued attribute self.{stmt.iter.attr} "
                f"(assigned at line {self.attr_sets[stmt.iter.attr]}) with "
                "order-dependent effects; iterate sorted(...) instead",
            )
        self._bind(stmt.target, _EMPTY)
        self.run(stmt.body)
        self.run(stmt.orelse)

    # ------------------------------------------------------------ expressions
    def _callable_alias_tags(self, expr: ast.expr) -> frozenset:
        """``mk = np.random.default_rng`` tags ``mk`` as an RNG constructor."""
        if self.rng_exempt or not isinstance(expr, (ast.Name, ast.Attribute)):
            return _EMPTY
        qualified = self.ctx.qualified(expr)
        if qualified in RNG_CTORS:
            return frozenset({("rngctor", expr.lineno)})
        if isinstance(expr, ast.Name):
            return frozenset(
                {(t, l) for t, l in self.env.get(expr.id, _EMPTY) if t == "rngctor"}
            )
        return _EMPTY

    def _eval(self, expr: ast.expr, order_sink_ok: bool = False) -> frozenset:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Call):
            return self._call(expr, order_sink_ok)
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.attr_sets
            ):
                return _EMPTY  # handled positionally in _for_stmt
            self._eval(expr.value)
            return _EMPTY
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left) | self._eval(expr.right)
        if isinstance(expr, ast.BoolOp):
            out = _EMPTY
            for value in expr.values:
                out |= self._eval(value)
            return out
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body) | self._eval(expr.orelse)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comp in expr.comparators:
                self._eval(comp)
            return _EMPTY
        if isinstance(expr, ast.JoinedStr):
            out = _EMPTY
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._eval(value.value)
            return out
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out = _EMPTY
            for elt in expr.elts:
                out |= self._eval(elt)
            return out
        if isinstance(expr, ast.Dict):
            out = _EMPTY
            for key in expr.keys:
                if key is not None:
                    out |= self._eval(key)
            for value in expr.values:
                out |= self._eval(value)
            return out
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            return self._comprehension(expr, order_sink_ok)
        if isinstance(expr, ast.Subscript):
            return self._eval(expr.value)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        return _EMPTY

    def _comprehension(self, expr, order_sink_ok: bool) -> frozenset:
        ordered_output = isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp))
        for gen in expr.generators:
            iter_tags = self._eval(gen.iter, order_sink_ok=True)
            fs_lines = _lines(iter_tags, "fslist")
            if fs_lines and ordered_output and not order_sink_ok:
                self._emit(
                    ORDER_RULE,
                    gen.iter,
                    f"comprehension over unsorted filesystem listing (from line "
                    f"{fs_lines[0]}) freezes a nondeterministic order into its "
                    "output; wrap the listing in sorted()",
                )
            self._bind(gen.target, _EMPTY)
        if isinstance(expr, ast.DictComp):
            self._eval(expr.key)
            self._eval(expr.value)
        else:
            self._eval(expr.elt)
        return _EMPTY

    def _call(self, expr: ast.Call, order_sink_ok: bool) -> frozenset:
        func = expr.func
        qualified = self.ctx.qualified(func)
        func_name = func.id if isinstance(func, ast.Name) else None
        order_neutral = (
            func_name in ORDER_NEUTRAL_CALLS or qualified in ORDER_NEUTRAL_CALLS
        )
        arg_tags = _EMPTY
        all_args = list(expr.args) + [kw.value for kw in expr.keywords]
        for arg in all_args:
            arg_tags |= self._eval(arg, order_sink_ok=order_neutral or order_sink_ok)

        # --- R013: RNG construction and draws -----------------------------
        if not self.rng_exempt:
            if qualified in RNG_CTORS:
                return arg_tags | frozenset({("rng", expr.lineno)})
            if func_name is not None and any(
                tag == "rngctor" for tag, _ in self.env.get(func_name, _EMPTY)
            ):
                alias_lines = _lines(self.env[func_name], "rngctor")
                self._emit(
                    RNG_RULE,
                    expr,
                    f"RNG constructed through alias {func_name!r} (aliased at "
                    f"line {alias_lines[0]}) bypasses RngRegistry; draw streams "
                    "from RngRegistry.stream()/fallback_rng() instead",
                )
                return arg_tags | frozenset({("rng", expr.lineno)})
            if isinstance(func, ast.Attribute) and func.attr in DRAW_METHODS:
                recv_tags = self._eval(func.value)
                rng_lines = _lines(recv_tags, "rng")
                if rng_lines:
                    self._emit(
                        RNG_RULE,
                        expr,
                        f"draw .{func.attr}() on a generator constructed outside "
                        f"RngRegistry (constructed at line {rng_lines[0]}); thread "
                        "a named stream from RngRegistry/fallback_rng instead",
                    )

        # --- R014: wall-clock sources and sinks ---------------------------
        if qualified in WALL_CALLS:
            return frozenset({("wall", expr.lineno)})
        sink_name = None
        if qualified in SINK_CALLS:
            sink_name = qualified
        elif isinstance(func, ast.Attribute) and func.attr in SINK_METHODS:
            sink_name = f".{func.attr}()"
        if sink_name is not None:
            walls = _lines(arg_tags, "wall")
            if walls:
                self._emit(
                    WALL_RULE,
                    expr,
                    f"wall-clock value (read at line {walls[0]}) reaches "
                    f"persisted output via {sink_name}; persist simulation "
                    "time instead",
                )

        # --- R015: filesystem enumeration and materializers ---------------
        if qualified in FS_CALLS or (
            isinstance(func, ast.Attribute) and func.attr in FS_METHODS
        ):
            return arg_tags | frozenset({("fslist", expr.lineno)})
        if order_neutral:
            return _without(arg_tags, "fslist")
        if func_name in ORDER_MATERIALIZERS or (
            isinstance(func, ast.Attribute) and func.attr == "join"
        ):
            fs_lines = _lines(arg_tags, "fslist")
            if fs_lines and not order_sink_ok:
                label = func_name or ".join()"
                self._emit(
                    ORDER_RULE,
                    expr,
                    f"materializing unsorted filesystem listing (from line "
                    f"{fs_lines[0]}) via {label}; wrap it in sorted() first",
                )
            return _without(arg_tags, "fslist")

        # --- passthrough & default ----------------------------------------
        if func_name in PASSTHROUGH:
            return arg_tags
        # Unknown calls launder taint (intra-procedural analysis).
        return _EMPTY


def _has_ordered_effect(body: Iterable[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.AugAssign)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ORDERED_EFFECTS
            ):
                return True
    return False
