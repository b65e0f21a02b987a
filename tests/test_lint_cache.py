"""Incremental engine: cache correctness, invalidation, speedup, CLI.

The cache must be *transparent* — byte-for-byte identical findings and
facts with or without it — and *safe* — any change to file content,
path, or the lint engine itself misses.  The speedup assertion here is
deliberately lenient (the CI timing step records the real ≥3x number);
it guards the mechanism, not the magnitude.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.lint.cache import (
    LintCache,
    analyze_paths,
    engine_version,
    project_findings_for,
)
from repro.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_DIR = REPO_ROOT / "src" / "repro" / "lint"


def write_tree(root: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        paths.append(target)
    return paths


def test_cache_is_transparent(tmp_path: Path):
    files = write_tree(
        tmp_path / "tree",
        {
            "a.py": "total = deadline_ns + horizon_s\n",
            "b.py": "x_ns = 1\n",
        },
    )
    cold = analyze_paths(files, root=tmp_path)
    cache = LintCache(tmp_path / "cache")
    primed = analyze_paths(files, root=tmp_path, cache=cache)
    warm = analyze_paths(files, root=tmp_path, cache=cache)

    for result in (primed, warm):
        assert [f.to_dict() for f in result.findings] == [
            f.to_dict() for f in cold.findings
        ]
        assert [m.to_dict() for m in result.facts] == [
            m.to_dict() for m in cold.facts
        ]
    assert primed.cache_hits == 0
    assert warm.cache_hits == 2


def test_cache_invalidates_on_content_change(tmp_path: Path):
    [target] = write_tree(tmp_path / "tree", {"a.py": "x_ns = 1\n"})
    cache = LintCache(tmp_path / "cache")
    analyze_paths([target], root=tmp_path, cache=cache)

    target.write_text("total = deadline_ns + horizon_s\n")
    result = analyze_paths([target], root=tmp_path, cache=cache)
    assert result.cache_hits == 0
    assert [f.rule for f in result.findings] == ["RL002"]


def test_cache_key_depends_on_path_and_engine(tmp_path: Path):
    key_a = LintCache.key_for("src/a.py", "x = 1\n")
    key_b = LintCache.key_for("src/b.py", "x = 1\n")
    assert key_a != key_b
    assert LintCache.key_for("src/a.py", "x = 1\n") == key_a


def test_engine_version_pins_lint_sources():
    # The version digests the lint package itself: editing any rule
    # must invalidate every cached entry.
    version = engine_version()
    assert len(version) == 24
    assert version == engine_version()  # memoized, stable in-process


def test_corrupt_cache_entry_is_a_miss(tmp_path: Path):
    [target] = write_tree(tmp_path / "tree", {"a.py": "x_ns = 1\n"})
    cache = LintCache(tmp_path / "cache")
    analyze_paths([target], root=tmp_path, cache=cache)
    for entry in (tmp_path / "cache").glob("*.json"):
        entry.write_text("{ not json")
    result = analyze_paths([target], root=tmp_path, cache=cache)
    assert result.cache_hits == 0
    assert [f.rule for f in result.findings] == []


def test_warm_run_is_faster_over_lint_package(tmp_path: Path):
    """Mechanism guard: warm hits skip parsing; CI records the real ≥3x."""
    paths = sorted(LINT_DIR.glob("*.py"))
    cache = LintCache(tmp_path / "cache")

    t0 = time.perf_counter()
    analyze_paths(paths, root=REPO_ROOT, cache=cache)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = analyze_paths(paths, root=REPO_ROOT, cache=cache)
    warm_s = time.perf_counter() - t0

    assert warm.cache_hits == len(paths)
    assert warm_s < cold_s, (cold_s, warm_s)


def test_project_findings_identical_from_cached_facts(tmp_path: Path):
    # A cross-module RL009 finding: the callee's unit-suffixed parameter
    # lives in one file, the mismatched call in the other.
    sources = {
        "src/repro/core/admit.py": """
def admit(deadline_ns):
    return deadline_ns
""",
        "src/repro/core/caller.py": """
from repro.core.admit import admit

def caller(cutoff_ms):
    return admit(cutoff_ms)
""",
    }
    files = write_tree(tmp_path / "tree", sources)
    cache = LintCache(tmp_path / "cache")
    cold = analyze_paths(files, root=tmp_path, cache=cache)
    warm = analyze_paths(files, root=tmp_path, cache=cache)
    assert warm.cache_hits == 2
    cold_project = [f.to_dict() for f in project_findings_for(cold.facts)]
    warm_project = [f.to_dict() for f in project_findings_for(warm.facts)]
    assert cold_project == warm_project
    assert any(
        f["rule"] == "RL009" and "'deadline_ns' expects" in str(f["message"])
        for f in warm_project
    )


def test_cli_cache_flag_and_jobs(tmp_path: Path, capsys):
    tree = write_tree(
        tmp_path / "tree", {"a.py": "x_ns = 1\n", "b.py": "y_ns = 2\n"}
    )
    cache_dir = tmp_path / "cache"
    assert (
        lint_main([str(p) for p in tree] + ["--cache", str(cache_dir), "--jobs", "2"])
        == 0
    )
    capsys.readouterr()
    assert list(cache_dir.glob("*.json"))
    assert (
        lint_main([str(p) for p in tree] + ["--cache", str(cache_dir)]) == 0
    )
    capsys.readouterr()


def test_cli_changed_mode(tmp_path: Path):
    if shutil.which("git") is None:
        return
    tree = tmp_path / "repo"
    write_tree(
        tree,
        {
            "clean.py": "x_ns = 1\n",
            "untouched.py": "total = deadline_ns + horizon_s\n",
        },
    )
    env = {"PATH": "/usr/bin:/bin:/usr/local/bin", "HOME": str(tmp_path)}
    run = lambda *cmd: subprocess.run(
        list(cmd), cwd=tree, env=env, capture_output=True, text=True, check=True
    )
    run("git", "init", "-q")
    run("git", "config", "user.email", "t@example.com")
    run("git", "config", "user.name", "t")
    run("git", "add", ".")
    run("git", "commit", "-qm", "seed")

    # Only the newly added dirty file is linted; the committed dirty
    # file is invisible to --changed.
    (tree / "new.py").write_text("bad = a_ns + b_s\n")
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--changed", "--format", "json"],
        cwd=tree,
        env={**env, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert {f["path"] for f in payload} == {"new.py"}


def test_cli_changed_outside_git_is_usage_error(tmp_path: Path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--changed"],
        cwd=tmp_path,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "git checkout" in result.stderr
