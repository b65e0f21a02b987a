"""Per-file fact extraction for the whole-program analysis suite.

The cross-module rules (RL007–RL009 in :mod:`repro.lint.project_rules`)
never re-read source files: everything they need from one module is
condensed here into a :class:`ModuleFacts` — symbol tables, import
edges, per-function call sites, RNG-stream facts, unit-suffix dataflow
summaries, mutable module globals, and the suppression directives that
apply to project-level findings.

:class:`ModuleFacts` round-trips through plain JSON (``to_dict`` /
``from_dict``), which is what makes the incremental cache
(:mod:`repro.lint.cache`) possible: an unchanged file contributes its
cached facts to the project model without being parsed again.

Facts are *summaries*, deliberately lossy: they keep exactly what the
project rules consume, in deterministic (sorted or source) order, so a
facts dict is a pure function of the source text.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint import FileContext

__all__ = [
    "CallFacts",
    "FACTS_VERSION",
    "FunctionFacts",
    "GENERATOR_METHODS",
    "ModuleFacts",
    "PendingMix",
    "RNG_DRAW_CLASSES",
    "RngEvent",
    "extract_facts",
    "module_name_for",
    "unit_of_identifier",
]

# Bump when the extracted shape changes: cached facts with a different
# version are discarded (see repro.lint.cache).
FACTS_VERSION = 2

# numpy Generator draw methods and the bit-stream they consume.  Methods
# mapped to the same class are draw-for-draw equivalent (``random`` and
# ``uniform`` both consume one double; ``choice(n, p=...)`` inverts the
# CDF on a single double — see repro.market.agents).
RNG_DRAW_CLASSES: dict[str, str] = {
    "random": "double",
    "uniform": "double",
    "choice": "double",
    "integers": "int",
    "normal": "normal",
    "standard_normal": "normal",
    "lognormal": "lognormal",
    "exponential": "exponential",
    "poisson": "poisson",
    "binomial": "binomial",
    "geometric": "geometric",
    "gamma": "gamma",
    "beta": "beta",
    "shuffle": "shuffle",
    "permutation": "permutation",
    "permuted": "permutation",
    "bytes": "bytes",
}
GENERATOR_METHODS = frozenset(RNG_DRAW_CLASSES)

# Methods that mutate their receiver in place (module-global mutation
# detection for RL008).
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)

_UNIT_SUFFIXES = {
    "ns": "ns",
    "us": "us",
    "ms": "ms",
    "s": "s",
    "sec": "s",
    "hz": "hz",
    "khz": "khz",
    "mhz": "mhz",
    "ghz": "ghz",
    "w": "w",
    "mw": "mw",
    "kw": "kw",
    "v": "v",
    "mv": "mv",
    "j": "j",
    "mj": "mj",
}

_ENVCFG_READERS = frozenset({"get_int", "get_float", "get_path", "raw"})


def unit_of_identifier(name: str) -> str | None:
    """The unit implied by ``name``'s suffix (``deadline_ns`` -> ``ns``)."""
    if "_" not in name:
        return None
    return _UNIT_SUFFIXES.get(name.rsplit("_", 1)[1].lower())


def module_name_for(path: str) -> str | None:
    """Dotted module name for a repo-relative path, or None outside repro.

    ``src/repro/sim/backtest.py`` -> ``repro.sim.backtest``;
    ``src/repro/lint/__init__.py`` -> ``repro.lint``.  Paths without a
    ``repro/`` component (tests, scripts, benchmarks) are not part of
    the project model.
    """
    parts = path.split("/")
    try:
        start = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    tail = parts[start:]
    if not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


@dataclass(frozen=True)
class CallFacts:
    """One call site, summarised for resolution and unit checking."""

    line: int
    col: int
    target: str  # dotted, alias-expanded ("self.mix.sample", "repro.units.sec_to_ns")
    arg_units: tuple[str | None, ...]  # positional argument units (None = unknown)
    kwarg_units: tuple[tuple[str, str | None], ...]  # (keyword, unit)
    nargs: int

    def to_dict(self) -> dict[str, object]:
        return {
            "line": self.line,
            "col": self.col,
            "target": self.target,
            "arg_units": list(self.arg_units),
            "kwarg_units": [list(pair) for pair in self.kwarg_units],
            "nargs": self.nargs,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CallFacts":
        return cls(
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            target=str(data["target"]),
            arg_units=tuple(data["arg_units"]),  # type: ignore[arg-type]
            kwarg_units=tuple(
                (str(k), u) for k, u in data["kwarg_units"]  # type: ignore[union-attr]
            ),
            nargs=int(data["nargs"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class RngEvent:
    """One RNG-stream event inside a function, in source order.

    ``kind`` is ``draw`` (a Generator method call), ``forward`` (an
    rng-typed value passed into another call), ``create`` (a
    ``default_rng`` construction) or ``reseed`` (a rebinding of a name
    that already held a generator).
    """

    kind: str
    line: int
    col: int
    detail: str  # draw class, forwarded-call base name, or receiver name
    seeded: bool = True
    in_loop: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "line": self.line,
            "col": self.col,
            "detail": self.detail,
            "seeded": self.seeded,
            "in_loop": self.in_loop,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RngEvent":
        return cls(
            kind=str(data["kind"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            detail=str(data["detail"]),
            seeded=bool(data["seeded"]),
            in_loop=bool(data["in_loop"]),
        )


@dataclass(frozen=True)
class PendingMix:
    """A unit-mix candidate whose verdict needs cross-module facts.

    One operand's unit is known; the other is the return value of a call
    that only the project model can resolve (RL009's
    assignment/return propagation)."""

    line: int
    col: int
    op: str  # 'arithmetic' | 'comparison'
    known_name: str
    known_unit: str
    call_target: str  # dotted target whose return unit decides the verdict
    via: str  # the local name the call result travelled through

    def to_dict(self) -> dict[str, object]:
        return {
            "line": self.line,
            "col": self.col,
            "op": self.op,
            "known_name": self.known_name,
            "known_unit": self.known_unit,
            "call_target": self.call_target,
            "via": self.via,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PendingMix":
        return cls(
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            op=str(data["op"]),
            known_name=str(data["known_name"]),
            known_unit=str(data["known_unit"]),
            call_target=str(data["call_target"]),
            via=str(data["via"]),
        )


@dataclass
class FunctionFacts:
    """Summary of one module-level function or class method.

    Nested functions and closures fold into their enclosing function:
    RNG and unit facts must see the helper closures the event loops
    define inline, and reachability must roll up through them.
    """

    qualname: str
    name: str
    line: int
    is_public: bool
    params: tuple[str, ...] = ()
    param_units: dict[str, str] = field(default_factory=dict)
    decorators: tuple[str, ...] = ()
    calls: tuple[CallFacts, ...] = ()
    rng_events: tuple[RngEvent, ...] = ()
    # Receivers of Generator draws that trace to no parameter, seeded
    # construction or attribute: (line, col, receiver).
    rng_untracked: tuple[tuple[int, int, str], ...] = ()
    env_reads: tuple[tuple[int, int, str], ...] = ()  # (line, col, var or '?')
    global_reads: tuple[str, ...] = ()
    global_writes: tuple[str, ...] = ()
    return_unit: str | None = None
    # (line, col, message) RL009 findings fully decided inside the file.
    unit_findings: tuple[tuple[int, int, str], ...] = ()
    pending_mixes: tuple[PendingMix, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "line": self.line,
            "is_public": self.is_public,
            "params": list(self.params),
            "param_units": dict(self.param_units),
            "decorators": list(self.decorators),
            "calls": [call.to_dict() for call in self.calls],
            "rng_events": [event.to_dict() for event in self.rng_events],
            "rng_untracked": [list(item) for item in self.rng_untracked],
            "env_reads": [list(item) for item in self.env_reads],
            "global_reads": list(self.global_reads),
            "global_writes": list(self.global_writes),
            "return_unit": self.return_unit,
            "unit_findings": [list(item) for item in self.unit_findings],
            "pending_mixes": [mix.to_dict() for mix in self.pending_mixes],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FunctionFacts":
        return cls(
            qualname=str(data["qualname"]),
            name=str(data["name"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            is_public=bool(data["is_public"]),
            params=tuple(data["params"]),  # type: ignore[arg-type]
            param_units=dict(data["param_units"]),  # type: ignore[arg-type]
            decorators=tuple(data["decorators"]),  # type: ignore[arg-type]
            calls=tuple(
                CallFacts.from_dict(c) for c in data["calls"]  # type: ignore[union-attr]
            ),
            rng_events=tuple(
                RngEvent.from_dict(e)
                for e in data["rng_events"]  # type: ignore[union-attr]
            ),
            rng_untracked=tuple(
                (int(a), int(b), str(c))
                for a, b, c in data["rng_untracked"]  # type: ignore[union-attr]
            ),
            env_reads=tuple(
                (int(a), int(b), str(c))
                for a, b, c in data["env_reads"]  # type: ignore[union-attr]
            ),
            global_reads=tuple(data["global_reads"]),  # type: ignore[arg-type]
            global_writes=tuple(data["global_writes"]),  # type: ignore[arg-type]
            return_unit=data["return_unit"],  # type: ignore[arg-type]
            unit_findings=tuple(
                (int(a), int(b), str(c))
                for a, b, c in data["unit_findings"]  # type: ignore[union-attr]
            ),
            pending_mixes=tuple(
                PendingMix.from_dict(m)
                for m in data["pending_mixes"]  # type: ignore[union-attr]
            ),
        )


@dataclass
class ModuleFacts:
    """Everything the project model keeps about one source file."""

    path: str
    module: str | None
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    # class name -> sorted method names (public and private).
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    imports: tuple[str, ...] = ()  # imported repro.* modules, sorted
    # Module-level mutable bindings (dict/list/set literal or call).
    mutable_globals: dict[str, int] = field(default_factory=dict)
    # Module-level envcfg reads / RNG constructions: (line, col, detail).
    module_env_reads: tuple[tuple[int, int, str], ...] = ()
    module_rng_creations: tuple[tuple[int, int, str], ...] = ()
    # Dotted targets called at import time (module body, class bodies,
    # decorators, default arguments) — registry populators live here.
    module_level_calls: tuple[str, ...] = ()
    # Suppression directives for project-level findings: line -> codes,
    # plus file-scope codes and the raw directive records
    # (line, scope, codes, covered lines) for stale-suppression checks.
    line_suppressions: dict[int, tuple[str, ...]] = field(default_factory=dict)
    file_suppressions: tuple[str, ...] = ()
    directives: tuple[tuple[int, str, tuple[str, ...], tuple[int, ...]], ...] = ()

    def suppressed(self, code: str, line: int) -> bool:
        """Whether a project-level finding at ``line`` is suppressed."""
        if code in self.file_suppressions or "all" in self.file_suppressions:
            return True
        codes = self.line_suppressions.get(line)
        return bool(codes) and (code in codes or "all" in codes)

    def to_dict(self) -> dict[str, object]:
        return {
            "version": FACTS_VERSION,
            "path": self.path,
            "module": self.module,
            "functions": {k: v.to_dict() for k, v in self.functions.items()},
            "classes": {k: list(v) for k, v in self.classes.items()},
            "imports": list(self.imports),
            "mutable_globals": dict(self.mutable_globals),
            "module_env_reads": [list(item) for item in self.module_env_reads],
            "module_rng_creations": [
                list(item) for item in self.module_rng_creations
            ],
            "module_level_calls": list(self.module_level_calls),
            "line_suppressions": {
                str(k): list(v) for k, v in self.line_suppressions.items()
            },
            "file_suppressions": list(self.file_suppressions),
            "directives": [
                [line, scope, list(codes), list(covers)]
                for line, scope, codes, covers in self.directives
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ModuleFacts":
        return cls(
            path=str(data["path"]),
            module=data["module"],  # type: ignore[arg-type]
            functions={
                str(k): FunctionFacts.from_dict(v)
                for k, v in data["functions"].items()  # type: ignore[union-attr]
            },
            classes={
                str(k): tuple(v)
                for k, v in data["classes"].items()  # type: ignore[union-attr]
            },
            imports=tuple(data["imports"]),  # type: ignore[arg-type]
            mutable_globals={
                str(k): int(v)
                for k, v in data["mutable_globals"].items()  # type: ignore[union-attr]
            },
            module_env_reads=tuple(
                (int(a), int(b), str(c))
                for a, b, c in data["module_env_reads"]  # type: ignore[union-attr]
            ),
            module_rng_creations=tuple(
                (int(a), int(b), str(c))
                for a, b, c in data["module_rng_creations"]  # type: ignore[union-attr]
            ),
            module_level_calls=tuple(data["module_level_calls"]),  # type: ignore[arg-type]
            line_suppressions={
                int(k): tuple(v)
                for k, v in data["line_suppressions"].items()  # type: ignore[union-attr]
            },
            file_suppressions=tuple(data["file_suppressions"]),  # type: ignore[arg-type]
            directives=tuple(
                (int(line), str(scope), tuple(codes), tuple(covers))
                for line, scope, codes, covers in data["directives"]  # type: ignore[union-attr]
            ),
        )


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "list", "set", "defaultdict", "deque")
    return False


def _dotted_call_target(
    ctx: FileContext, func: ast.expr, aliases: dict[str, str]
) -> str | None:
    if isinstance(func, ast.Name) and func.id in aliases:
        return aliases[func.id]
    return ctx.dotted_name(func)


class _FunctionExtractor(ast.NodeVisitor):
    """One pass over a function body (nested defs folded in)."""

    def __init__(
        self,
        ctx: FileContext,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        mutable_globals: dict[str, int],
    ) -> None:
        self.ctx = ctx
        self.qualname = qualname
        self.node = node
        self.mutable_globals = mutable_globals
        self.calls: list[CallFacts] = []
        self.rng_events: list[RngEvent] = []
        self.rng_untracked: list[tuple[int, int, str]] = []
        self.env_reads: list[tuple[int, int, str]] = []
        self.global_reads: set[str] = set()
        self.global_writes: set[str] = set()
        self.unit_findings: list[tuple[int, int, str]] = []
        self.pending_mixes: list[PendingMix] = []
        self.return_units: set[str | None] = set()
        # Local unit environment and provenance.
        self.units: dict[str, str] = {}
        # name -> dotted call target whose return unit is pending.
        self.pending_units: dict[str, str] = {}
        # Local aliases of attribute chains (normal = rng.normal).
        self.aliases: dict[str, str] = {}
        # RNG taint: names known to hold a generator, by origin.
        self.rng_names: dict[str, str] = {}  # name -> 'param' | 'seeded' | 'alias'
        self.rng_bind_lines: dict[str, int] = {}
        self._loop_depth = 0
        self._shadowed: set[str] = set()

        params = [
            a.arg
            for a in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
            if a.arg not in ("self", "cls")
        ]
        self.params = tuple(params)
        for param in params:
            unit = unit_of_identifier(param)
            if unit is not None:
                self.units[param] = unit
            if self._rng_like(param):
                self.rng_names[param] = "param"
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if arg.annotation is not None and arg.arg not in ("self", "cls"):
                annotation = self.ctx.dotted_name(arg.annotation)
                if annotation is not None and annotation.endswith("Generator"):
                    self.rng_names[arg.arg] = "param"

    @staticmethod
    def _rng_like(name: str) -> bool:
        lowered = name.lower()
        return "rng" in lowered or lowered in ("gen", "generator")

    # -- unit inference -----------------------------------------------------

    def _unit_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            unit = self.units.get(node.id)
            if unit is not None:
                return unit
            return unit_of_identifier(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_identifier(node.attr)
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ("int", "float", "round", "abs", "min", "max")
                and node.args
            ):
                units = {self._unit_of(arg) for arg in node.args}
                units.discard(None)
                if len(units) == 1:
                    return next(iter(units))
                return None
            target = _dotted_call_target(self.ctx, node.func, self.aliases)
            if target is not None:
                return unit_of_identifier(target.rsplit(".", 1)[-1])
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mod, ast.FloorDiv)
        ):
            left = self._unit_of(node.left)
            right = self._unit_of(node.right)
            if left is not None and left == right:
                return left
            if left is not None and right is None and isinstance(node.right, ast.Constant):
                return left
            if right is not None and left is None and isinstance(node.left, ast.Constant):
                return right
            return None
        if isinstance(node, ast.IfExp):
            body = self._unit_of(node.body)
            orelse = self._unit_of(node.orelse)
            return body if body == orelse else None
        return None

    def _describe(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return "expression"

    def _check_mix(self, node: ast.BinOp | ast.Compare) -> None:
        pairs: list[tuple[ast.expr, ast.expr]]
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                return
            pairs = [(node.left, node.right)]
            op = "arithmetic"
        else:
            pairs = []
            prev = node.left
            for comparator in node.comparators:
                pairs.append((prev, comparator))
                prev = comparator
            op = "comparison"
        for left, right in pairs:
            left_unit = self._unit_of(left)
            right_unit = self._unit_of(right)
            if left_unit is not None and right_unit is not None:
                if left_unit != right_unit and not self._lexical_pair(left, right):
                    self.unit_findings.append(
                        (
                            node.lineno,
                            node.col_offset + 1,
                            f"{op} mixes inferred units: "
                            f"{self._describe(left)} [{left_unit}] vs "
                            f"{self._describe(right)} [{right_unit}] — "
                            "convert via repro.units first",
                        )
                    )
                continue
            # One side known, other side a pending call result.
            for known, pending in ((left, right), (right, left)):
                known_unit = self._unit_of(known)
                if known_unit is None or not isinstance(pending, ast.Name):
                    continue
                target = self.pending_units.get(pending.id)
                if target is not None:
                    self.pending_mixes.append(
                        PendingMix(
                            line=node.lineno,
                            col=node.col_offset + 1,
                            op=op,
                            known_name=self._describe(known),
                            known_unit=known_unit,
                            call_target=target,
                            via=pending.id,
                        )
                    )

    def _lexical_pair(self, left: ast.expr, right: ast.expr) -> bool:
        """True when BOTH operands carry a lexical unit suffix — that mix
        is RL002's (per-file) finding; RL009 only owns inferred ones."""

        def lexical(node: ast.expr) -> bool:
            if isinstance(node, ast.Name):
                return unit_of_identifier(node.id) is not None
            if isinstance(node, ast.Attribute):
                return unit_of_identifier(node.attr) is not None
            return False

        return lexical(left) and lexical(right)

    # -- visitors -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.node:
            for stmt in node.body:
                self.visit(stmt)
        else:
            # Nested def: its params shadow outer taint; fold the body in.
            self._shadowed |= {a.arg for a in node.args.args}
            for stmt in node.body:
                self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self.visit(node.target)
        self._loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self._loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self._loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is None:
            self.return_units.add(None)
        else:
            self.return_units.add(self._unit_of(node.value))
            self.visit(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        value = node.value
        # Alias tracking: name = <attribute chain> (normal = rng.normal).
        if isinstance(value, (ast.Attribute, ast.Name)):
            dotted = self.ctx.dotted_name(value)
            if dotted is not None and "." in dotted:
                self.aliases[name] = dotted
        # Unit propagation through assignment.
        unit = self._unit_of(value)
        if unit is not None:
            self.units[name] = unit
            self.pending_units.pop(name, None)
        elif isinstance(value, ast.Call):
            target = _dotted_call_target(self.ctx, value.func, self.aliases)
            if target is not None:
                self.pending_units[name] = target
            self.units.pop(name, None)
        else:
            self.units.pop(name, None)
            self.pending_units.pop(name, None)
        # RNG taint propagation.
        created = self._rng_creation(value)
        if created is not None:
            if name in self.rng_names and self.rng_names[name] != "alias":
                self.rng_events.append(
                    RngEvent(
                        kind="reseed",
                        line=node.lineno,
                        col=node.col_offset + 1,
                        detail=name,
                        seeded=created,
                        in_loop=self._loop_depth > 0,
                    )
                )
            else:
                self.rng_events.append(
                    RngEvent(
                        kind="create",
                        line=node.lineno,
                        col=node.col_offset + 1,
                        detail=name,
                        seeded=created,
                        in_loop=self._loop_depth > 0,
                    )
                )
            self.rng_names[name] = "seeded"
            self.rng_bind_lines[name] = node.lineno
        elif isinstance(value, ast.Name) and value.id in self.rng_names:
            self.rng_names[name] = "alias"
        elif isinstance(value, ast.Attribute) and self._rng_like(value.attr):
            # rng = self._rng — owner-seeded attribute pulled into a local.
            self.rng_names[name] = "alias"

    def _rng_creation(self, value: ast.expr) -> bool | None:
        """``True``/``False`` (seeded?) when ``value`` constructs a
        Generator; None otherwise."""
        if not isinstance(value, ast.Call):
            return None
        dotted = _dotted_call_target(self.ctx, value.func, self.aliases)
        if dotted is None:
            return None
        if dotted.endswith("default_rng") or dotted in (
            "numpy.random.Generator",
            "random.Random",
        ):
            return bool(value.args or value.keywords)
        return None

    def _rng_receiver(self, func: ast.expr) -> str | None:
        """The tainted receiver name when ``func`` is a Generator method."""
        if not isinstance(func, ast.Attribute) or func.attr not in GENERATOR_METHODS:
            return None
        value = func.value
        if isinstance(value, ast.Name):
            if value.id in self._shadowed:
                return None
            return value.id
        if isinstance(value, ast.Attribute) and self._rng_like(value.attr):
            return f"attr:{value.attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        target = _dotted_call_target(self.ctx, node.func, self.aliases)
        # envcfg reads.
        if target is not None:
            parts = target.split(".")
            if (
                len(parts) >= 2
                and parts[-2] == "envcfg"
                and parts[-1] in _ENVCFG_READERS
            ):
                var = "?"
                if node.args and isinstance(node.args[0], ast.Constant):
                    if isinstance(node.args[0].value, str):
                        var = node.args[0].value
                self.env_reads.append((node.lineno, node.col_offset + 1, var))
        # RNG draws (direct receiver or local alias of rng.<method>).
        receiver = self._rng_receiver(node.func)
        alias_target = None
        if isinstance(node.func, ast.Name):
            alias_target = self.aliases.get(node.func.id)
        if receiver is None and alias_target is not None:
            head, _, method = alias_target.rpartition(".")
            if method in GENERATOR_METHODS and (
                head in self.rng_names or self._rng_like(head.rsplit(".", 1)[-1])
            ):
                receiver = head
                node = node  # draw through the alias
                self.rng_events.append(
                    RngEvent(
                        kind="draw",
                        line=node.lineno,
                        col=node.col_offset + 1,
                        detail=RNG_DRAW_CLASSES[method],
                        in_loop=self._loop_depth > 0,
                    )
                )
                receiver = None  # already recorded
        if receiver is not None:
            method = node.func.attr  # type: ignore[union-attr]
            self.rng_events.append(
                RngEvent(
                    kind="draw",
                    line=node.lineno,
                    col=node.col_offset + 1,
                    detail=RNG_DRAW_CLASSES[method],
                    in_loop=self._loop_depth > 0,
                )
            )
            if not self._rng_tracked(receiver):
                self.rng_untracked.append(
                    (node.lineno, node.col_offset + 1, receiver)
                )
        # Forwarded generators: an rng-typed argument entering a call.
        if target is not None:
            for arg in node.args:
                forwarded = self._forwarded_rng(arg)
                if forwarded:
                    base = target.rsplit(".", 1)[-1]
                    if base.endswith("_fast"):
                        base = base[: -len("_fast")]
                    self.rng_events.append(
                        RngEvent(
                            kind="forward",
                            line=node.lineno,
                            col=node.col_offset + 1,
                            detail=base,
                            in_loop=self._loop_depth > 0,
                        )
                    )
                    break
        # Record the call site itself.
        if target is not None:
            arg_units = tuple(self._unit_of(arg) for arg in node.args)
            kwarg_units = tuple(
                (kw.arg, self._unit_of(kw.value))
                for kw in node.keywords
                if kw.arg is not None
            )
            self.calls.append(
                CallFacts(
                    line=node.lineno,
                    col=node.col_offset + 1,
                    target=target,
                    arg_units=arg_units,
                    kwarg_units=kwarg_units,
                    nargs=len(node.args),
                )
            )
        self.generic_visit(node)

    def _rng_tracked(self, receiver: str) -> bool:
        if receiver.startswith("attr:"):
            return True  # self._rng-style attributes: owner seeds them
        origin = self.rng_names.get(receiver)
        return origin is not None

    def _forwarded_rng(self, arg: ast.expr) -> bool:
        return isinstance(arg, ast.Name) and arg.id in self.rng_names

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_mix(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._check_mix(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.mutable_globals:
            if isinstance(node.ctx, ast.Load):
                self.global_reads.add(node.id)
            else:
                self.global_writes.add(node.id)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.value, ast.Name):
            name = node.value.id
            if name in self.mutable_globals and not isinstance(
                node.ctx, ast.Load
            ):
                self.global_writes.add(name)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) and target.id in self.mutable_globals:
            self.global_writes.add(target.id)
        self.visit(target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id in self.mutable_globals:
                    self.global_writes.add(target.value.id)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        # G.append(...) / G.update(...) on a module-level mutable global.
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _MUTATING_METHODS
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id in self.mutable_globals
        ):
            self.global_writes.add(value.func.value.id)
        self.generic_visit(node)

    def finish(self) -> FunctionFacts:
        units = self.return_units - {None}
        return_unit = next(iter(units)) if len(units) == 1 else None
        name_unit = unit_of_identifier(self.node.name)
        if (
            name_unit is not None
            and return_unit is not None
            and name_unit != return_unit
        ):
            self.unit_findings.append(
                (
                    self.node.lineno,
                    self.node.col_offset + 1,
                    f"{self.node.name}() is suffixed [{name_unit}] but returns "
                    f"[{return_unit}] values",
                )
            )
        if name_unit is not None and return_unit is None:
            return_unit = name_unit
        param_units = {
            param: unit
            for param in self.params
            if (unit := unit_of_identifier(param)) is not None
        }
        decorators = tuple(
            dotted
            for dec in self.node.decorator_list
            if (
                dotted := self.ctx.dotted_name(
                    dec.func if isinstance(dec, ast.Call) else dec
                )
            )
            is not None
        )
        return FunctionFacts(
            qualname=self.qualname,
            name=self.node.name,
            line=self.node.lineno,
            is_public=not self.node.name.startswith("_"),
            params=self.params,
            param_units=param_units,
            decorators=decorators,
            calls=tuple(self.calls),
            rng_events=tuple(self.rng_events),
            rng_untracked=tuple(self.rng_untracked),
            env_reads=tuple(self.env_reads),
            global_reads=tuple(sorted(self.global_reads)),
            global_writes=tuple(sorted(self.global_writes)),
            return_unit=return_unit,
            unit_findings=tuple(self.unit_findings),
            pending_mixes=tuple(self.pending_mixes),
        )


def _module_level_scan(
    ctx: FileContext, facts: ModuleFacts
) -> None:
    """Module-body facts: mutable globals, import-time envcfg reads and
    RNG constructions (class bodies and default arguments included)."""
    env_reads: list[tuple[int, int, str]] = []
    rng_creations: list[tuple[int, int, str]] = []
    level_calls: set[str] = set()

    def scan_expr(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            dotted = ctx.dotted_name(sub.func)
            if dotted is None:
                continue
            level_calls.add(dotted)
            parts = dotted.split(".")
            if (
                len(parts) >= 2
                and parts[-2] == "envcfg"
                and parts[-1] in _ENVCFG_READERS
            ):
                var = "?"
                if sub.args and isinstance(sub.args[0], ast.Constant):
                    if isinstance(sub.args[0].value, str):
                        var = sub.args[0].value
                env_reads.append((sub.lineno, sub.col_offset + 1, var))
            if dotted.endswith("default_rng") or dotted == "numpy.random.Generator":
                rng_creations.append((sub.lineno, sub.col_offset + 1, dotted))

    def scan_body(body: list[ast.stmt], module_level: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Default argument values and decorator expressions
                # evaluate at import time.
                for default in stmt.args.defaults + [
                    d for d in stmt.args.kw_defaults if d is not None
                ]:
                    scan_expr(default)
                for dec in stmt.decorator_list:
                    scan_expr(dec)
                    dotted = ctx.dotted_name(
                        dec.func if isinstance(dec, ast.Call) else dec
                    )
                    if dotted is not None:
                        level_calls.add(dotted)
                continue
            if isinstance(stmt, ast.ClassDef):
                for dec in stmt.decorator_list:
                    scan_expr(dec)
                    dotted = ctx.dotted_name(
                        dec.func if isinstance(dec, ast.Call) else dec
                    )
                    if dotted is not None:
                        level_calls.add(dotted)
                scan_body(stmt.body, module_level=False)
                continue
            if module_level and isinstance(stmt, ast.Assign):
                if len(stmt.targets) == 1 and isinstance(
                    stmt.targets[0], ast.Name
                ):
                    if _is_mutable_literal(stmt.value):
                        facts.mutable_globals[stmt.targets[0].id] = stmt.lineno
            if module_level and isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                    and _is_mutable_literal(stmt.value)
                ):
                    facts.mutable_globals[stmt.target.id] = stmt.lineno
            scan_expr(stmt)

    scan_body(ctx.tree.body, module_level=True)
    facts.module_env_reads = tuple(env_reads)
    facts.module_rng_creations = tuple(rng_creations)
    facts.module_level_calls = tuple(sorted(level_calls))


def _collect_directives(ctx: FileContext) -> tuple[
    tuple[int, str, tuple[str, ...], tuple[int, ...]], ...
]:
    """Raw suppression-directive records for stale-suppression checks."""
    import re

    from repro.lint import _in_string_literal, _string_literal_spans

    directive = re.compile(
        r"#\s*repro-lint:\s*(?P<scope>file-)?disable=(?P<codes>[A-Za-z0-9_,\s]+)"
    )
    records: list[tuple[int, str, tuple[str, ...], tuple[int, ...]]] = []
    lines = ctx.lines
    spans = _string_literal_spans(ctx.tree)
    for lineno, text in enumerate(lines, start=1):
        match = directive.search(text)
        if match is None or _in_string_literal(spans, lineno, match.start()):
            continue
        codes = tuple(
            sorted(c.strip() for c in match.group("codes").split(",") if c.strip())
        )
        if match.group("scope"):
            records.append((lineno, "file", codes, ()))
            continue
        covers = [lineno]
        if text.lstrip().startswith("#"):
            for follow in range(lineno + 1, len(lines) + 1):
                body = lines[follow - 1].strip()
                if body and not body.startswith("#"):
                    covers.append(follow)
                    break
        records.append((lineno, "line", codes, tuple(covers)))
    return tuple(records)


def extract_facts(ctx: FileContext) -> ModuleFacts:
    """Condense one parsed file into its :class:`ModuleFacts`."""
    facts = ModuleFacts(path=ctx.path, module=module_name_for(ctx.path))
    _module_level_scan(ctx, facts)

    imports: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    imports.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                imports.add(node.module)
    facts.imports = tuple(sorted(imports))

    def extract_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> None:
        extractor = _FunctionExtractor(ctx, qualname, node, facts.mutable_globals)
        extractor.visit(node)
        facts.functions[qualname] = extractor.finish()

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(stmt, stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            methods: list[str] = []
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(member.name)
                    extract_function(member, f"{stmt.name}.{member.name}")
            facts.classes[stmt.name] = tuple(sorted(methods))

    facts.line_suppressions = {
        line: tuple(sorted(codes))
        for line, codes in sorted(ctx.line_suppressions.items())
    }
    facts.file_suppressions = tuple(sorted(ctx.file_suppressions))
    facts.directives = _collect_directives(ctx)
    return facts
