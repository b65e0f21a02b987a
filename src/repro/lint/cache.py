"""Incremental lint engine: content-hash cache + whole-program pass.

One lint run has two halves.  The per-file half (RL001–RL005 findings
plus :mod:`~repro.lint.facts` extraction) is a pure function of a
file's bytes, so it is cached under a key hashing the *content*, the
*path* and the *engine version* (a digest of the lint package's own
sources — editing a rule invalidates everything).  The project half
(RL007–RL009) rebuilds its model every run from the per-file facts —
cached or fresh — which is two orders of magnitude cheaper than
parsing, so a warm run over an unchanged tree does no ``ast.parse`` at
all.

The cache is opt-in: set ``REPRO_LINT_CACHE`` (or pass
``--cache DIR``) to a directory; entries are atomic JSON files named by
their key, safe under concurrent runs.  ``--jobs N`` forks the
per-file half across processes for cold runs on multi-core machines.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint import (
    Finding,
    build_context,
    iter_python_files,
    lint_source,
    repo_relative,
)
from repro.lint.facts import FACTS_VERSION, ModuleFacts, extract_facts

__all__ = [
    "AnalysisResult",
    "LintCache",
    "analyze_paths",
    "engine_version",
    "project_findings_for",
    "stale_suppression_findings",
]

_ENGINE_VERSION: str | None = None


def engine_version() -> str:
    """Digest of the lint package's own sources + facts schema version.

    Any edit to a rule, the extractor, or this engine changes the
    version and therefore every cache key: stale findings can never
    survive a lint upgrade.
    """
    global _ENGINE_VERSION
    if _ENGINE_VERSION is None:
        digest = hashlib.sha256()
        digest.update(f"facts-v{FACTS_VERSION}".encode())
        package_dir = Path(__file__).resolve().parent
        for source in sorted(package_dir.glob("*.py")):
            digest.update(source.name.encode())
            digest.update(source.read_bytes())
        _ENGINE_VERSION = digest.hexdigest()[:24]
    return _ENGINE_VERSION


class LintCache:
    """Atomic per-file JSON cache keyed by (content, path, engine)."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key_for(rel_path: str, source: str) -> str:
        digest = hashlib.sha256()
        digest.update(engine_version().encode())
        digest.update(b"\x00")
        digest.update(rel_path.encode())
        digest.update(b"\x00")
        digest.update(source.encode())
        return digest.hexdigest()

    def get(self, key: str) -> dict[str, object] | None:
        entry = self.directory / f"{key}.json"
        try:
            payload = json.loads(entry.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload  # type: ignore[no-any-return]

    def put(self, key: str, payload: dict[str, object]) -> None:
        entry = self.directory / f"{key}.json"
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, entry)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


@dataclass
class AnalysisResult:
    """Per-file findings + extracted facts for one set of paths."""

    findings: list[Finding] = field(default_factory=list)
    facts: list[ModuleFacts] = field(default_factory=list)
    files_scanned: int = 0
    cache_hits: int = 0


def _analyze_source(source: str, rel_path: str) -> tuple[list[Finding], ModuleFacts]:
    """Per-file rules + facts extraction from one parse."""
    findings = lint_source(source, rel_path)
    try:
        ctx = build_context(source, rel_path)
        facts = extract_facts(ctx)
    except SyntaxError:
        facts = ModuleFacts(path=rel_path, module=None)
    return findings, facts


def _analyze_file(path: Path, root: Path | None) -> tuple[list[Finding], ModuleFacts]:
    rel = repo_relative(path, root)
    try:
        source = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        return (
            [Finding("RL000", rel, 1, 1, f"unreadable: {exc}")],
            ModuleFacts(path=rel, module=None),
        )
    try:
        return _analyze_source(source, rel)
    except SyntaxError as exc:
        return (
            [Finding("RL000", rel, exc.lineno or 1, 1, f"syntax error: {exc.msg}")],
            ModuleFacts(path=rel, module=None),
        )


# Worker-side entry for --jobs: returns JSON-able payloads so results
# cross the process boundary without pickling dataclasses.
def _analyze_worker(item: tuple[str, str | None]) -> dict[str, object]:
    path_str, root_str = item
    findings, facts = _analyze_file(
        Path(path_str), Path(root_str) if root_str else None
    )
    return {
        "findings": [f.to_dict() for f in findings],
        "facts": facts.to_dict(),
    }


def _payload_to_result(payload: dict[str, object]) -> tuple[list[Finding], ModuleFacts]:
    findings = [
        Finding(
            rule=str(f["rule"]),
            path=str(f["path"]),
            line=int(f["line"]),  # type: ignore[arg-type]
            col=int(f["col"]),  # type: ignore[arg-type]
            message=str(f["message"]),
            suppressed=bool(f["suppressed"]),
        )
        for f in payload["findings"]  # type: ignore[union-attr]
    ]
    facts = ModuleFacts.from_dict(payload["facts"])  # type: ignore[arg-type]
    return findings, facts


def analyze_paths(
    paths: list[Path],
    root: Path | None = None,
    cache: LintCache | None = None,
    jobs: int = 1,
) -> AnalysisResult:
    """Per-file findings + facts for every ``.py`` under ``paths``.

    Cache hits skip parse and rules entirely; misses are analysed (in
    ``jobs`` processes when > 1) and written back.
    """
    result = AnalysisResult()
    pending: list[Path] = []
    pending_keys: list[str | None] = []
    for file_path in iter_python_files(paths):
        result.files_scanned += 1
        key: str | None = None
        if cache is not None:
            rel = repo_relative(file_path, root)
            try:
                source = file_path.read_text()
            except (OSError, UnicodeDecodeError):
                source = None  # type: ignore[assignment]
            if source is not None:
                key = LintCache.key_for(rel, source)
                payload = cache.get(key)
                if payload is not None and payload.get("engine") == engine_version():
                    findings, facts = _payload_to_result(payload)
                    result.findings.extend(findings)
                    result.facts.append(facts)
                    result.cache_hits += 1
                    continue
        pending.append(file_path)
        pending_keys.append(key)

    if jobs > 1 and len(pending) > 1:
        import multiprocessing

        items = [(str(p), str(root) if root else None) for p in pending]
        with multiprocessing.Pool(processes=jobs) as pool:
            payloads = pool.map(_analyze_worker, items)
        analysed = [_payload_to_result(p) for p in payloads]
    else:
        analysed = [_analyze_file(p, root) for p in pending]

    for (findings, facts), key in zip(analysed, pending_keys):
        result.findings.extend(findings)
        result.facts.append(facts)
        if cache is not None and key is not None:
            cache.put(
                key,
                {
                    "engine": engine_version(),
                    "findings": [f.to_dict() for f in findings],
                    "facts": facts.to_dict(),
                },
            )
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return result


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
