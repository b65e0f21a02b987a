"""Whole-program model over ``src/repro``: symbols and call graph.

Built once per lint run from the per-file :class:`~repro.lint.facts.
ModuleFacts`, then handed to the cross-module rules in
:mod:`repro.lint.project_rules`.  Resolution is
deliberately *conservative*: a call site resolves to every definition it
could plausibly reach, and rules that need precision (RL009 unit
checks) only act when the resolution is unique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.lint.facts import FunctionFacts, ModuleFacts

__all__ = ["FunctionRef", "ProjectModel", "build_model"]


@dataclass(frozen=True)
class FunctionRef:
    """A resolved function: (module, qualname) plus its facts."""

    module: str
    qualname: str
    facts: FunctionFacts

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ProjectModel:
    """Symbol tables and conservative call graph."""

    modules: dict[str, ModuleFacts] = field(default_factory=dict)
    # method name -> [(module, qualname)] over every class in the model.
    _methods_by_name: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    # function name -> [(module, qualname)] for module-level functions.
    _functions_by_name: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    # module names sorted longest-first, for dotted-prefix resolution.
    _module_order: list[str] = field(default_factory=list)

    def _index(self) -> None:
        self._methods_by_name.clear()
        self._functions_by_name.clear()
        for module, facts in self.modules.items():
            for qualname in facts.functions:
                cls, _, method = qualname.rpartition(".")
                if cls:
                    self._methods_by_name.setdefault(method, []).append(
                        (module, qualname)
                    )
                else:
                    self._functions_by_name.setdefault(qualname, []).append(
                        (module, qualname)
                    )
        self._module_order = sorted(self.modules, key=len, reverse=True)

    # -- lookups ------------------------------------------------------------

    def function(self, module: str, qualname: str) -> FunctionRef | None:
        facts = self.modules.get(module)
        if facts is None:
            return None
        fn = facts.functions.get(qualname)
        if fn is None:
            return None
        return FunctionRef(module, qualname, fn)

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self, caller_module: str, caller_qualname: str, target: str
    ) -> list[FunctionRef]:
        """Every model function a dotted call target could reach.

        Resolution tiers, most precise first:

        1. ``repro.``-prefixed dotted path — longest module-name prefix,
           remainder is the qualname (class attribute access allowed:
           ``repro.sim.backtest.Backtester.run``).
        2. ``self.m`` — method ``m`` on the caller's own class.
        3. bare name — module-level function in the caller's module.
        4. ``obj.m`` / ``alias.m`` — *any* method named ``m`` in the
           model (conservative; used for reachability, not unit checks).
        """
        if target.startswith("repro.") or target == "repro":
            for module in self._module_order:
                if target == module:
                    return []
                if target.startswith(module + "."):
                    remainder = target[len(module) + 1 :]
                    ref = self.function(module, remainder)
                    if ref is not None:
                        return [ref]
                    # Class constructor or class-attribute chains:
                    # Cls -> Cls.__init__, Cls.method handled above.
                    ref = self.function(module, f"{remainder}.__init__")
                    if ref is not None:
                        return [ref]
                    return []
            return []
        head, _, method = target.rpartition(".")
        if not head:
            # Bare name: same-module function, else any same-named one.
            facts = self.modules.get(caller_module)
            if facts is not None and target in facts.functions:
                return [
                    FunctionRef(caller_module, target, facts.functions[target])
                ]
            # A bare class name is a constructor call.
            if facts is not None and target in facts.classes:
                ref = self.function(caller_module, f"{target}.__init__")
                return [ref] if ref is not None else []
            return []
        if head == "self" or head.startswith("self."):
            cls, _, _ = caller_qualname.rpartition(".")
            if head == "self" and cls:
                ref = self.function(caller_module, f"{cls}.{method}")
                if ref is not None:
                    return [ref]
            # self.attr.m or unresolved: fall through to by-name.
        refs = [
            FunctionRef(module, qualname, self.modules[module].functions[qualname])
            for module, qualname in self._methods_by_name.get(method, [])
        ]
        return refs

    def resolve_unique(
        self, caller_module: str, caller_qualname: str, target: str
    ) -> FunctionRef | None:
        """The single function ``target`` resolves to, or None."""
        refs = self.resolve_call(caller_module, caller_qualname, target)
        if len(refs) == 1:
            return refs[0]
        return None

    # -- reachability -------------------------------------------------------

    def reachable(self, entries: list[tuple[str, str]]) -> set[tuple[str, str]]:
        """All (module, qualname) reachable from ``entries`` through the
        conservative call graph (entries included when they exist)."""
        seen: set[tuple[str, str]] = set()
        queue: deque[tuple[str, str]] = deque()
        for module, qualname in entries:
            if self.function(module, qualname) is not None:
                seen.add((module, qualname))
                queue.append((module, qualname))
        while queue:
            module, qualname = queue.popleft()
            ref = self.function(module, qualname)
            if ref is None:
                continue
            for call in ref.facts.calls:
                for callee in self.resolve_call(module, qualname, call.target):
                    if callee.key not in seen:
                        seen.add(callee.key)
                        queue.append(callee.key)
        return seen


def build_model(facts: list[ModuleFacts]) -> ProjectModel:
    """Assemble the project model from per-file facts.

    Files outside ``repro`` (tests, scripts) carry ``module=None`` and
    are skipped: the model describes the library, not its harnesses.
    """
    model = ProjectModel()
    for item in facts:
        if item.module is not None:
            model.modules[item.module] = item
    model._index()
    return model
