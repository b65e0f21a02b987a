"""Cross-module rules RL007–RL009 over the :class:`ProjectModel`.

Unlike RL001–RL005 these cannot be answered file-by-file: they trace RNG
taint through calls, walk the call graph from the pool workers' entry
points, and propagate unit-suffix facts interprocedurally.  Each rule
consumes only the extracted :mod:`~repro.lint.facts` — never source
text — so cached facts make a warm run skip parsing entirely.

========  ==================================================================
RL007     RNG-stream discipline: every draw descends from a seeded Generator
RL008     fork/pool safety: no parent-only state visible to pool workers
RL009     interprocedural unit-suffix dataflow (RL002 across calls)
========  ==================================================================
"""

from __future__ import annotations

import re

from repro.lint import Finding
from repro.lint.facts import ModuleFacts
from repro.lint.project import ProjectModel

__all__ = [
    "ForkPoolSafety",
    "ProjectRule",
    "RngStreamDiscipline",
    "UnitDataflow",
    "WORKER_ENTRY_POINTS",
    "all_project_rules",
    "project_rule_findings",
]

_PROJECT_REGISTRY: dict[str, "type[ProjectRule]"] = {}


class ProjectRule:
    """One whole-program invariant, run once per lint over the model."""

    code: str = "RL00X"
    name: str = "project-base"
    rationale: str = ""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.findings: list[Finding] = []

    def check(self) -> None:
        raise NotImplementedError

    def report(
        self, facts: ModuleFacts, line: int, col: int, message: str
    ) -> None:
        self.findings.append(
            Finding(
                rule=self.code,
                path=facts.path,
                line=line,
                col=col,
                message=message,
                suppressed=facts.suppressed(self.code, line),
            )
        )


def _register(rule_cls: type[ProjectRule]) -> type[ProjectRule]:
    if rule_cls.code in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule code {rule_cls.code}")
    _PROJECT_REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_project_rules() -> dict[str, type[ProjectRule]]:
    """Registered project rules by code."""
    return dict(_PROJECT_REGISTRY)


def project_rule_findings(model: ProjectModel) -> list[Finding]:
    """Run every project rule over ``model``; deterministic order."""
    findings: list[Finding] = []
    for code in sorted(_PROJECT_REGISTRY):
        rule = _PROJECT_REGISTRY[code](model)
        rule.check()
        findings.extend(rule.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings


# ---------------------------------------------------------------------------
# RL007 — RNG-stream discipline
# ---------------------------------------------------------------------------

_RL007_SCOPE = re.compile(r"^repro\.(sim|market|faults)(\.|$)")


@_register
class RngStreamDiscipline(ProjectRule):
    """Every RNG draw in sim/market/faults descends from a seeded
    ``Generator``: no module-level generators, no unseeded
    constructions, no reseeding or re-creation mid-stream, no draws on
    receivers that trace to neither a parameter, a seeded construction
    nor an owner-seeded attribute."""

    code = "RL007"
    name = "rng-stream-discipline"
    rationale = (
        "tape parity and replay depend on one deterministic stream per "
        "seed; a stray generator forks the stream silently"
    )

    def check(self) -> None:
        for module in sorted(self.model.modules):
            if not _RL007_SCOPE.match(module):
                continue
            facts = self.model.modules[module]
            for line, col, detail in facts.module_rng_creations:
                self.report(
                    facts,
                    line,
                    col,
                    f"module-level RNG construction ({detail}) — generators "
                    "must be created per run from an explicit seed and "
                    "passed down as parameters",
                )
            for qualname in sorted(facts.functions):
                fn = facts.functions[qualname]
                for event in fn.rng_events:
                    if event.kind == "create" and not event.seeded:
                        self.report(
                            facts,
                            event.line,
                            event.col,
                            f"{qualname}: unseeded default_rng() — draws "
                            "here cannot be reproduced from the run seed",
                        )
                    elif event.kind == "create" and event.in_loop:
                        self.report(
                            facts,
                            event.line,
                            event.col,
                            f"{qualname}: generator '{event.detail}' is "
                            "re-created inside a loop — hoist the "
                            "construction so the stream stays contiguous",
                        )
                    elif event.kind == "reseed":
                        self.report(
                            facts,
                            event.line,
                            event.col,
                            f"{qualname}: generator '{event.detail}' is "
                            "rebound mid-stream — reseeding forks the "
                            "deterministic stream",
                        )
                for line, col, receiver in fn.rng_untracked:
                    self.report(
                        facts,
                        line,
                        col,
                        f"{qualname}: draw on '{receiver}' which does not "
                        "descend from a seeded Generator parameter or "
                        "construction in this scope",
                    )


# ---------------------------------------------------------------------------
# RL008 — fork/pool safety
# ---------------------------------------------------------------------------

# Functions the experiment pools execute in forked workers.  Everything
# reachable from these through the conservative call graph runs on the
# worker side of the fork.
WORKER_ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.bench.runner", "execute_run"),
    ("repro.campaign.runner", "execute_campaign_run"),
)


@_register
class ForkPoolSafety(ProjectRule):
    """Pool workers see the fork-time snapshot of every module global
    and environment read that happened at import time.  Flag (a)
    ``envcfg`` reads evaluated at import time (module level, class
    bodies, default arguments) anywhere in the library, and (b)
    module-level mutable globals that worker-reachable code *reads* but
    only parent-only code *mutates* — the worker keeps serving the
    stale snapshot."""

    code = "RL008"
    name = "fork-pool-safety"
    rationale = (
        "the bench/campaign pools fork once and reuse workers; state "
        "mutated only in the parent after warm-up silently diverges"
    )

    def _import_time_callees(self) -> set[tuple[str, str]]:
        """Functions invoked at import time anywhere in the model —
        registry populators (``_declare``, ``@register_scenario``) run
        identically in parent and worker, so their writes are
        fork-safe."""
        callees: set[tuple[str, str]] = set()
        for module, facts in self.model.modules.items():
            for target in facts.module_level_calls:
                for ref in self.model.resolve_call(module, "", target):
                    callees.add(ref.key)
        return callees

    def check(self) -> None:
        worker_side = self.model.reachable(list(WORKER_ENTRY_POINTS))
        worker_side |= self._import_time_callees()
        for module in sorted(self.model.modules):
            facts = self.model.modules[module]
            for line, col, var in facts.module_env_reads:
                self.report(
                    facts,
                    line,
                    col,
                    f"envcfg read of {var} at import time — workers inherit "
                    "the fork-time value; read it inside the function that "
                    "needs it",
                )
            if not facts.mutable_globals:
                continue
            readers: dict[str, list[str]] = {}
            writers: dict[str, list[str]] = {}
            for qualname, fn in facts.functions.items():
                for name in fn.global_reads:
                    readers.setdefault(name, []).append(qualname)
                for name in fn.global_writes:
                    writers.setdefault(name, []).append(qualname)
            for name, def_line in sorted(facts.mutable_globals.items()):
                reading = readers.get(name, [])
                writing = writers.get(name, [])
                if not reading or not writing:
                    continue
                worker_reads = [
                    q for q in reading if (module, q) in worker_side
                ]
                worker_writes = [
                    q for q in writing if (module, q) in worker_side
                ]
                if worker_reads and not worker_writes:
                    self.report(
                        facts,
                        def_line,
                        1,
                        f"module global '{name}' is read by worker-side "
                        f"code ({', '.join(sorted(worker_reads)[:3])}) but "
                        "mutated only by parent-only code "
                        f"({', '.join(sorted(writing)[:3])}) — pool workers "
                        "keep serving the fork-time snapshot",
                    )


# ---------------------------------------------------------------------------
# RL009 — interprocedural unit-suffix dataflow
# ---------------------------------------------------------------------------


@_register
class UnitDataflow(ProjectRule):
    """RL002 upgraded from lexical to interprocedural: unit facts
    propagate through assignments and returns inside a function (phase
    A, extracted per file) and through uniquely-resolved calls across
    modules (phase B, decided here): argument units must match the
    callee's parameter suffixes, inferred return units must match the
    callee's name suffix, and mixes involving a call result use the
    callee's actual return unit."""

    code = "RL009"
    name = "unit-dataflow"
    rationale = (
        "a nanosecond value flowing into a seconds-suffixed parameter is "
        "the unit bug RL002's single-expression view cannot see"
    )

    def check(self) -> None:
        for module in sorted(self.model.modules):
            facts = self.model.modules[module]
            for qualname in sorted(facts.functions):
                fn = facts.functions[qualname]
                for line, col, message in fn.unit_findings:
                    self.report(facts, line, col, f"{qualname}: {message}")
                for mix in fn.pending_mixes:
                    callee = self.model.resolve_unique(
                        module, qualname, mix.call_target
                    )
                    if callee is None:
                        continue
                    ret = callee.facts.return_unit
                    if ret is not None and ret != mix.known_unit:
                        self.report(
                            facts,
                            mix.line,
                            mix.col,
                            f"{qualname}: {mix.op} mixes "
                            f"{mix.known_name} [{mix.known_unit}] with "
                            f"'{mix.via}' = {mix.call_target}() which "
                            f"returns [{ret}] — convert via repro.units "
                            "first",
                        )
                for call in fn.calls:
                    callee = self.model.resolve_unique(
                        module, qualname, call.target
                    )
                    if callee is None or callee.key == (module, qualname):
                        continue
                    params = callee.facts.params
                    param_units = callee.facts.param_units
                    for index, arg_unit in enumerate(call.arg_units):
                        if arg_unit is None or index >= len(params):
                            continue
                        expected = param_units.get(params[index])
                        if expected is not None and expected != arg_unit:
                            self.report(
                                facts,
                                call.line,
                                call.col,
                                f"{qualname}: argument {index + 1} of "
                                f"{call.target}() carries [{arg_unit}] but "
                                f"parameter '{params[index]}' expects "
                                f"[{expected}]",
                            )
                    for keyword, kw_unit in call.kwarg_units:
                        if kw_unit is None:
                            continue
                        expected = param_units.get(keyword)
                        if expected is not None and expected != kw_unit:
                            self.report(
                                facts,
                                call.line,
                                call.col,
                                f"{qualname}: keyword '{keyword}' of "
                                f"{call.target}() carries [{kw_unit}] but "
                                f"the parameter expects [{expected}]",
                            )
