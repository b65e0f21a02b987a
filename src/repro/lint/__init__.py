"""``repro.lint`` — AST-based checker for the project's invariants.

Every guarantee the reproduction makes — byte-identical back-tests and
tapes, bit-transparent fault replay, seeded RNG streams — rests on
conventions no unit test can see: simulator code must not read wall
clocks or global RNG state, time/frequency/power identifiers carry unit
suffixes that must not mix, ``REPRO_*`` configuration goes through
:mod:`repro.envcfg`, and hot-path functions stay allocation-free.  This
package machine-checks those conventions::

    python -m repro.lint                  # whole repo, exit 1 on findings
    python -m repro.lint src/repro/sim    # a subtree
    python -m repro.lint --format json    # machine-readable findings
    python -m repro.lint --stats out.json # per-rule finding/suppression counts
    python -m repro.lint --env-table      # regenerate the EXPERIMENTS.md table

Rules (see :mod:`repro.lint.rules` for the implementations):

========  ==================================================================
RL001     no wall-clock / global-RNG calls in simulator packages
RL002     no arithmetic or comparisons across conflicting unit suffixes
RL003     ``REPRO_*`` environment reads must go through :mod:`repro.envcfg`
RL004     ``@hot_path`` functions must stay allocation- and logging-free
RL005     ``__all__`` must match the module's actual public definitions
========  ==================================================================

Suppressions are explicit and visible in the diff:

- ``# repro-lint: disable=RL001`` trailing a line suppresses that line
  (on its own comment line it covers the next statement instead);
- ``# repro-lint: file-disable=RL001`` anywhere suppresses the file;
- ``disable=all`` works in both forms.

The checker is stdlib-``ast`` only: no third-party dependency, no code
execution, deterministic output ordered by (path, line, rule).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lint.facts import ModuleFacts

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "analyze",
    "analyze_facts",
    "build_context",
    "iter_python_files",
    "lint_source",
    "project_findings",
    "project_findings_for",
    "register",
    "repo_relative",
    "stale_suppression_findings",
]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>file-)?disable=(?P<codes>[A-Za-z0-9_,\s]+)"
)

_RULE_REGISTRY: dict[str, "type[Rule]"] = {}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{mark}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }


@dataclass
class FileContext:
    """Everything the rules need to know about one parsed source file."""

    path: str  # repo-relative, posix separators
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    # import alias -> dotted module ("np" -> "numpy"); from-import
    # name -> dotted origin ("monotonic" -> "time.monotonic").
    module_aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, str] = field(default_factory=dict)
    # Top-level NAME = "string constant" assignments.
    str_constants: dict[str, str] = field(default_factory=dict)
    # line number -> set of rule codes suppressed on that line.
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
    # One record per directive comment, (line, scope, sorted codes,
    # covered lines), for the stale-suppression check.
    directives: list[tuple[int, str, tuple[str, ...], tuple[int, ...]]] = field(
        default_factory=list
    )

    def dotted_name(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path, expanding
        import aliases (``np.random.rand`` -> ``numpy.random.rand``)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        expanded = self.from_imports.get(head) or self.module_aliases.get(head) or head
        parts.append(expanded)
        return ".".join(reversed(parts))

    def suppressed(self, code: str, line: int, end_line: int | None = None) -> bool:
        if code in self.file_suppressions or "all" in self.file_suppressions:
            return True
        for candidate in {line, end_line or line}:
            codes = self.line_suppressions.get(candidate)
            if codes and (code in codes or "all" in codes):
                return True
        return False


class Rule:
    """Base class: one invariant, instantiated fresh per file.

    Subclasses set ``code``/``name``/``rationale``, may narrow
    :meth:`applies`, and implement :meth:`check` appending to
    ``self.findings`` via :meth:`report`.
    """

    code: str = "RL000"
    name: str = "base"
    rationale: str = ""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies(cls, path: str) -> bool:
        """Whether this rule runs on ``path`` (repo-relative, posix)."""
        return True

    def check(self) -> None:
        raise NotImplementedError

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        end_line = getattr(node, "end_lineno", None)
        self.findings.append(
            Finding(
                rule=self.code,
                path=self.ctx.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                suppressed=self.ctx.suppressed(self.code, line, end_line),
            )
        )


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule_cls`` to the global rule registry."""
    if rule_cls.code in _RULE_REGISTRY:
        raise ValueError(f"duplicate lint rule code {rule_cls.code}")
    _RULE_REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> dict[str, type[Rule]]:
    """Registered rules by code (imports the built-in rule set)."""
    from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

    return dict(_RULE_REGISTRY)


_SPAN_END = 1 << 30


def _string_literal_spans(tree: ast.Module) -> dict[int, list[tuple[int, int]]]:
    """Per-line column spans covered by string constants.

    Directive *examples* inside strings (docstrings, test fixtures)
    must not act as real suppressions, but a genuine directive comment
    trailing a single-line string on the same line must — hence column
    spans, not whole lines.
    """
    spans: dict[int, list[tuple[int, int]]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        end_lineno = node.end_lineno if node.end_lineno is not None else node.lineno
        end_col = node.end_col_offset if node.end_col_offset is not None else _SPAN_END
        if end_lineno == node.lineno:
            spans.setdefault(node.lineno, []).append((node.col_offset, end_col))
            continue
        spans.setdefault(node.lineno, []).append((node.col_offset, _SPAN_END))
        for line in range(node.lineno + 1, end_lineno):
            spans.setdefault(line, []).append((0, _SPAN_END))
        spans.setdefault(end_lineno, []).append((0, end_col))
    return spans


def _in_string_literal(
    spans: dict[int, list[tuple[int, int]]], lineno: int, col: int
) -> bool:
    return any(start <= col < end for start, end in spans.get(lineno, ()))


def _parse_suppressions(ctx: FileContext) -> None:
    lines = ctx.lines
    spans = _string_literal_spans(ctx.tree)
    for lineno, text in enumerate(lines, start=1):
        match = _DIRECTIVE.search(text)
        if match is None or _in_string_literal(spans, lineno, match.start()):
            continue
        codes = tuple(
            sorted(c.strip() for c in match.group("codes").split(",") if c.strip())
        )
        if match.group("scope"):
            ctx.file_suppressions.update(codes)
            ctx.directives.append((lineno, "file", codes, ()))
            continue
        covers = [lineno]
        if text.lstrip().startswith("#"):
            # Standalone directive comment: cover the next code line too.
            for follow in range(lineno + 1, len(lines) + 1):
                body = lines[follow - 1].strip()
                if body and not body.startswith("#"):
                    covers.append(follow)
                    break
        for target in covers:
            ctx.line_suppressions.setdefault(target, set()).update(codes)
        ctx.directives.append((lineno, "line", codes, tuple(covers)))


def _collect_imports(ctx: FileContext) -> None:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                ctx.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )


def _collect_constants(ctx: FileContext) -> None:
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                ctx.str_constants[target.id] = node.value.value


def build_context(source: str, path: str) -> FileContext:
    """Parse ``source`` and assemble the shared per-file context."""
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path=path, source=source, tree=tree, lines=source.splitlines())
    _parse_suppressions(ctx)
    _collect_imports(ctx)
    _collect_constants(ctx)
    return ctx


def lint_source(
    source: str,
    path: str = "<string>",
    codes: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the (optionally restricted) rule set over one source string.

    Returns *all* findings; suppressed ones carry ``suppressed=True`` so
    callers can count them without re-parsing.
    """
    return _run_rules(build_context(source, path), codes)


def _run_rules(ctx: FileContext, codes: Sequence[str] | None = None) -> list[Finding]:
    """The per-file rules over one parsed file, sorted by location."""
    registry = all_rules()
    selected = codes if codes is not None else sorted(registry)
    findings: list[Finding] = []
    for code in selected:
        rule_cls = registry[code]
        if not rule_cls.applies(ctx.path):
            continue
        rule = rule_cls(ctx)
        rule.check()
        findings.extend(rule.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings


def repo_relative(path: Path, root: Path | None = None) -> str:
    """``path`` relative to the repo root (posix), best effort."""
    root = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    seen: set[Path] = set()
    for path in paths:
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _parse_files(
    paths: Iterable[Path], root: Path | None
) -> Iterator[tuple[str, FileContext | Finding]]:
    """Read and parse each ``.py`` under ``paths`` once, yielding its
    repo-relative path with its context, or with the RL000 finding for a
    file that cannot be read or parsed."""
    for file_path in iter_python_files(paths):
        rel = repo_relative(file_path, root)
        parsed: FileContext | Finding
        try:
            parsed = build_context(file_path.read_text(), rel)
        except (OSError, UnicodeDecodeError) as exc:
            parsed = Finding("RL000", rel, 1, 1, f"unreadable: {exc}")
        except SyntaxError as exc:
            parsed = Finding(
                "RL000", rel, exc.lineno or 1, 1, f"syntax error: {exc.msg}"
            )
        yield rel, parsed


def analyze(
    paths: Iterable[Path], root: Path | None = None
) -> tuple[list[Finding], list[ModuleFacts]]:
    """Per-file findings and project facts for every ``.py`` under ``paths``.

    Each file is read and parsed once: the per-file rules (RL001–RL005)
    and :func:`~repro.lint.facts.extract_facts` share that parse.  An
    unreadable or unparsable file yields one RL000 finding and empty
    facts, so there is one facts entry per file scanned.  Findings come
    back in deterministic (path, line, rule, col) order.
    """
    from repro.lint.facts import ModuleFacts, extract_facts

    findings: list[Finding] = []
    facts: list[ModuleFacts] = []
    for rel, parsed in _parse_files(paths, root):
        if isinstance(parsed, Finding):
            findings.append(parsed)
            facts.append(ModuleFacts(path=rel, module=None))
            continue
        findings.extend(_run_rules(parsed))
        facts.append(extract_facts(parsed))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings, facts


def analyze_facts(paths: Iterable[Path], root: Path | None = None) -> list[ModuleFacts]:
    """:func:`analyze`'s project facts alone: the per-file rules do not
    run, and an unreadable or unparsable file gets empty facts."""
    from repro.lint.facts import ModuleFacts, extract_facts

    facts: list[ModuleFacts] = []
    for rel, parsed in _parse_files(paths, root):
        if isinstance(parsed, Finding):
            facts.append(ModuleFacts(path=rel, module=None))
        else:
            facts.append(extract_facts(parsed))
    return facts


def project_findings_for(facts: list[ModuleFacts]) -> list[Finding]:
    """Cross-module findings (RL007–RL009) over already-extracted facts."""
    from repro.lint.project import build_model
    from repro.lint.project_rules import project_rule_findings

    model = build_model(facts)
    return project_rule_findings(model)


def stale_suppression_findings(
    facts: list[ModuleFacts], findings: list[Finding]
) -> list[Finding]:
    """Suppression directives that no longer suppress anything.

    A stale ``# repro-lint: disable=RLxxx`` hides nothing today but
    would silently swallow a future finding — ``--strict-suppressions``
    turns each one into an RL000 finding.
    """
    by_file: dict[str, list[Finding]] = {}
    for finding in findings:
        by_file.setdefault(finding.path, []).append(finding)
    stale: list[Finding] = []
    for module_facts in facts:
        file_findings = by_file.get(module_facts.path, [])
        for line, scope, codes, covers in module_facts.directives:
            for code in codes:
                if scope == "file":
                    matched = any(
                        code == "all" or f.rule == code for f in file_findings
                    )
                else:
                    matched = any(
                        (code == "all" or f.rule == code) and f.line in covers
                        for f in file_findings
                    )
                if not matched:
                    stale.append(
                        Finding(
                            rule="RL000",
                            path=module_facts.path,
                            line=line,
                            col=1,
                            message=(
                                f"stale suppression: {scope}-level "
                                f"disable={code} matches no finding"
                            ),
                        )
                    )
    stale.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return stale


def project_findings(root: Path | None = None) -> list[Finding]:
    """Repo-level cross-checks that no single file can answer.

    RL003's registry side: every variable declared in
    :mod:`repro.envcfg` must be documented in EXPERIMENTS.md (the table
    itself is generated — ``python -m repro.lint --env-table``).
    """
    from repro import envcfg

    root = root if root is not None else Path.cwd()
    experiments = root / "EXPERIMENTS.md"
    findings: list[Finding] = []
    if not experiments.exists():
        return findings
    text = experiments.read_text()
    for var in envcfg.declared():
        if var.name not in text:
            findings.append(
                Finding(
                    "RL003",
                    "EXPERIMENTS.md",
                    1,
                    1,
                    f"registered variable {var.name} is undocumented — "
                    "regenerate the table with `python -m repro.lint --env-table`",
                )
            )
    return findings
