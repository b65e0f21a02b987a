"""Whole-program rules RL007–RL009 over synthetic module trees.

Fixture modules are assembled in-memory (or on disk for the CLI
acceptance test) with repro-shaped paths so the project model treats
them as the real packages.  Every rule gets a drift case, a clean case
and a suppression case.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import repro.lint
from repro.lint import analyze, build_context, project_findings_for
from repro.lint.__main__ import main as lint_main
from repro.lint.facts import extract_facts
from repro.lint.project import build_model
from repro.lint.project_rules import project_rule_findings


def model_of(files: dict[str, str]):
    facts = [
        extract_facts(build_context(textwrap.dedent(source), path))
        for path, source in files.items()
    ]
    return build_model(facts)


def findings_of(files: dict[str, str], code: str | None = None):
    findings = [
        f for f in project_rule_findings(model_of(files)) if not f.suppressed
    ]
    if code is not None:
        findings = [f for f in findings if f.rule == code]
    return findings


# ---------------------------------------------------------------------------
# RL007 — RNG-stream discipline
# ---------------------------------------------------------------------------


def test_rl007_module_level_generator():
    files = {
        "src/repro/market/noise.py": """
        import numpy as np

        _RNG = np.random.default_rng(7)
        """
    }
    findings = findings_of(files, "RL007")
    assert any("module-level RNG construction" in f.message for f in findings)


def test_rl007_suppression_downgrades_finding():
    files = {
        "src/repro/market/noise.py": """
        import numpy as np

        # repro-lint: disable=RL007
        _RNG = np.random.default_rng(7)
        """
    }
    model = model_of(files)
    findings = [f for f in project_rule_findings(model) if f.rule == "RL007"]
    assert findings and all(f.suppressed for f in findings)


def test_rl007_cli_exit_1_names_the_finding(tmp_path: Path):
    """Acceptance: a project-rule finding on a synthetic tree makes
    ``python -m repro.lint`` exit 1 and name it."""
    target = tmp_path / "src" / "repro" / "market" / "noise.py"
    target.parent.mkdir(parents=True)
    target.write_text("import numpy as np\n\n_RNG = np.random.default_rng(7)\n")

    repo_root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(repo_root / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "RL007" in result.stdout
    assert "module-level RNG construction" in result.stdout


def test_rl007_unseeded_default_rng():
    files = {
        "src/repro/sim/jitter.py": """
        import numpy as np

        def jitter():
            rng = np.random.default_rng()
            return rng.random()
        """
    }
    findings = findings_of(files, "RL007")
    assert any("unseeded default_rng()" in f.message for f in findings)


def test_rl007_reseed_mid_stream():
    files = {
        "src/repro/sim/jitter.py": """
        import numpy as np

        def jitter(seed):
            rng = np.random.default_rng(seed)
            a = rng.random()
            rng = np.random.default_rng(seed + 1)
            return a + rng.random()
        """
    }
    findings = findings_of(files, "RL007")
    assert any("rebound mid-stream" in f.message for f in findings)


def test_rl007_creation_inside_loop():
    files = {
        "src/repro/sim/jitter.py": """
        import numpy as np

        def jitter(seeds):
            total = 0.0
            for seed in seeds:
                gen = np.random.default_rng(seed)
                total += gen.random()
            return total
        """
    }
    findings = findings_of(files, "RL007")
    assert any("re-created inside a loop" in f.message for f in findings)


def test_rl007_untracked_receiver():
    files = {
        "src/repro/sim/jitter.py": """
        def jitter(model):
            helper = model.helper
            return helper.random()
        """
    }
    findings = findings_of(files, "RL007")
    assert any("does not descend" in f.message for f in findings)


def test_rl007_sanctioned_idioms_are_clean():
    files = {
        "src/repro/sim/jitter.py": """
        import numpy as np

        def seeded(seed):
            rng = np.random.default_rng(seed)
            return rng.random()

        def param(rng):
            return rng.integers(0, 4)

        def attr(self):
            rng = self._rng
            return rng.normal()
        """
    }
    assert findings_of(files, "RL007") == []


def test_rl007_out_of_scope_packages_exempt():
    files = {
        "src/repro/bench/fixture.py": """
        import numpy as np

        _RNG = np.random.default_rng(7)
        """
    }
    assert findings_of(files, "RL007") == []


# ---------------------------------------------------------------------------
# RL008 — fork/pool safety
# ---------------------------------------------------------------------------


def test_rl008_parent_only_mutation_of_worker_read_global():
    files = {
        "src/repro/bench/runner.py": """
        _TABLE = {}

        def execute_run(spec):
            return _TABLE.get(spec)

        def warm(key, value):
            _TABLE[key] = value
        """
    }
    findings = findings_of(files, "RL008")
    assert any(
        "'_TABLE'" in f.message and "fork-time snapshot" in f.message
        for f in findings
    )


def test_rl008_worker_side_mutator_is_clean():
    files = {
        "src/repro/bench/runner.py": """
        _TABLE = {}

        def execute_run(spec):
            if spec not in _TABLE:
                _TABLE[spec] = build(spec)
            return _TABLE[spec]

        def build(spec):
            return spec
        """
    }
    assert findings_of(files, "RL008") == []


def test_rl008_import_time_registry_is_clean():
    # Decorator-driven registries populate at import time in both the
    # parent and the worker — not a fork hazard.
    files = {
        "src/repro/bench/runner.py": """
        from repro.campaign.scenarios import scenario

        def execute_run(spec):
            return scenario(spec)
        """,
        "src/repro/campaign/scenarios.py": """
        _SCENARIOS = {}

        def register_scenario(name):
            def wrap(fn):
                _SCENARIOS[name] = fn
                return fn
            return wrap

        def scenario(name):
            return _SCENARIOS[name]

        @register_scenario("flash_crash")
        def flash_crash():
            return 1
        """,
    }
    assert findings_of(files, "RL008") == []


def test_rl008_import_time_envcfg_read():
    files = {
        "src/repro/bench/fixture.py": """
        from repro import envcfg

        LEVEL = envcfg.get_int("REPRO_TRACE_LEVEL")

        def use():
            return LEVEL
        """
    }
    findings = findings_of(files, "RL008")
    assert any(
        "REPRO_TRACE_LEVEL" in f.message and "import time" in f.message
        for f in findings
    )


def test_rl008_default_arg_envcfg_read():
    files = {
        "src/repro/bench/fixture.py": """
        from repro import envcfg

        def run(jobs=envcfg.get_int("REPRO_BENCH_JOBS")):
            return jobs
        """
    }
    findings = findings_of(files, "RL008")
    assert any("REPRO_BENCH_JOBS" in f.message for f in findings)


def test_rl008_function_body_envcfg_read_is_clean():
    files = {
        "src/repro/bench/fixture.py": """
        from repro import envcfg

        def run():
            return envcfg.get_int("REPRO_BENCH_JOBS")
        """
    }
    assert findings_of(files, "RL008") == []


# ---------------------------------------------------------------------------
# RL009 — interprocedural unit dataflow
# ---------------------------------------------------------------------------


def test_rl009_arg_unit_vs_param_suffix():
    files = {
        "src/repro/core/fixture.py": """
        def admit(deadline_ns):
            return deadline_ns

        def caller(cutoff_ms):
            return admit(cutoff_ms)
        """
    }
    findings = findings_of(files, "RL009")
    assert any(
        "[ms]" in f.message and "'deadline_ns' expects" in f.message
        for f in findings
    )


def test_rl009_keyword_unit_mismatch():
    files = {
        "src/repro/core/fixture.py": """
        def admit(deadline_ns=0):
            return deadline_ns

        def caller(cutoff_s):
            return admit(deadline_ns=cutoff_s)
        """
    }
    findings = findings_of(files, "RL009")
    assert any("keyword 'deadline_ns'" in f.message for f in findings)


def test_rl009_return_unit_flows_through_assignment():
    # The callee's name carries no suffix: only its *body* knows it
    # returns nanoseconds, so the verdict needs the resolved callee.
    files = {
        "src/repro/core/fixture.py": """
        def window(cfg):
            return cfg.span_ns

        def caller(cfg, cutoff_s):
            w = window(cfg)
            return w + cutoff_s
        """
    }
    findings = findings_of(files, "RL009")
    assert any(
        "window()" in f.message and "returns [ns]" in f.message
        for f in findings
    )


def test_rl009_suffixed_callee_name_resolves_locally():
    # A unit-suffixed callee name decides the mix without the project
    # model — still an RL009 finding, extracted per file.
    files = {
        "src/repro/core/fixture.py": """
        def caller(cfg, cutoff_s):
            w = window_ns(cfg)
            return w + cutoff_s
        """
    }
    findings = findings_of(files, "RL009")
    assert any("w [ns]" in f.message and "cutoff_s [s]" in f.message for f in findings)


def test_rl009_name_suffix_vs_returned_unit():
    files = {
        "src/repro/core/fixture.py": """
        def window_ns(cfg):
            return cfg.span_ms
        """
    }
    findings = findings_of(files, "RL009")
    assert any(
        "suffixed [ns] but returns [ms]" in f.message for f in findings
    )


def test_rl009_consistent_units_are_clean():
    files = {
        "src/repro/core/fixture.py": """
        def admit(deadline_ns):
            return deadline_ns

        def window_ns(cfg):
            return cfg.span_ns

        def caller(cfg, cutoff_ns):
            w = window_ns(cfg)
            admit(cutoff_ns)
            return w + cutoff_ns
        """
    }
    assert findings_of(files, "RL009") == []


def test_rl009_lexical_mix_stays_rl002():
    # Both operands carry lexical suffixes: that is RL002's finding,
    # not a duplicate RL009 one.
    files = {
        "src/repro/core/fixture.py": """
        def caller(a_ns, b_s):
            return a_ns + b_s
        """
    }
    assert findings_of(files, "RL009") == []


# ---------------------------------------------------------------------------
# model plumbing
# ---------------------------------------------------------------------------


def test_model_skips_modules_outside_repro():
    model = model_of({"tests/fixture.py": "def f():\n    return 1\n"})
    assert model.modules == {}


def test_real_repo_is_project_clean():
    repo_root = Path(__file__).resolve().parent.parent
    src = repo_root / "src"
    facts = [
        extract_facts(
            build_context(p.read_text(), p.relative_to(repo_root).as_posix())
        )
        for p in sorted(src.rglob("*.py"))
    ]
    model = build_model(facts)
    findings = [f for f in project_rule_findings(model) if not f.suppressed]
    assert findings == [], [f.render() for f in findings]


# ---------------------------------------------------------------------------
# one analysis path and the CLI
# ---------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        paths.append(target)
    return paths


def test_rl009_cross_module_finding_from_analyzed_files(tmp_path: Path):
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
    findings, facts = analyze(files, root=tmp_path)
    assert findings == []
    assert [m.module for m in facts] == ["repro.core.admit", "repro.core.caller"]
    project = project_findings_for(facts)
    assert any(
        f.rule == "RL009" and "'deadline_ns' expects" in f.message for f in project
    )


def test_cli_parses_each_file_once(tmp_path: Path, monkeypatch, capsys):
    # One requested file plus the rest of src/, which the CLI widens to
    # for the project rules: every file is parsed exactly once.
    write_tree(
        tmp_path,
        {
            "src/repro/core/admit.py": "def admit(deadline_ns):\n    return deadline_ns\n",
            "src/repro/core/caller.py": "def caller(cutoff_ns):\n    return cutoff_ns\n",
            "src/repro/sim/loop.py": "x_ns = 1\n",
        },
    )
    parsed: Counter[str] = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ast, "parse", counting_parse)
    assert lint_main(["src/repro/core/caller.py", "--strict-suppressions"]) == 0
    assert "1 file(s) scanned" in capsys.readouterr().out
    assert parsed == Counter(
        {
            "src/repro/core/admit.py": 1,
            "src/repro/core/caller.py": 1,
            "src/repro/sim/loop.py": 1,
        }
    )


def test_cli_one_file_runs_per_file_rules_on_that_file_only(
    tmp_path: Path, monkeypatch, capsys
):
    # The widened src/ files feed the project rules (the cross-module
    # RL009 finding below needs admit.py's facts), but the per-file rules
    # run on the requested file alone: loop.py's RL002 mix is never seen.
    write_tree(
        tmp_path,
        {
            "src/repro/core/admit.py": "def admit(deadline_ns):\n    return deadline_ns\n",
            "src/repro/core/caller.py": (
                "from repro.core.admit import admit\n\n"
                "def caller(cutoff_ms):\n    return admit(cutoff_ms)\n"
            ),
            "src/repro/sim/loop.py": "total = deadline_ns + horizon_s\n",
        },
    )
    checked: list[str] = []
    real_run_rules = repro.lint._run_rules

    def recording_run_rules(ctx, codes=None):
        checked.append(ctx.path)
        return real_run_rules(ctx, codes)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(repro.lint, "_run_rules", recording_run_rules)
    assert lint_main(["src/repro/core/caller.py"]) == 1
    out = capsys.readouterr().out
    assert checked == ["src/repro/core/caller.py"]
    assert "src/repro/core/caller.py:4:" in out and "RL009" in out
    assert "src/repro/sim/loop.py" not in out


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
