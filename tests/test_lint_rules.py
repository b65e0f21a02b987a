"""Rule-by-rule coverage for ``repro.lint``.

Each rule is driven over inline fixture snippets: a positive case (the
violation fires), a negative case (the sanctioned idiom stays clean) and
a suppression case (the directive downgrades the finding rather than
hiding it).  The framework itself — directive parsing, alias expansion,
ordering, CLI exit codes — is covered at the end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import Finding, all_rules, lint_source
from repro.lint.__main__ import main as lint_main

SIM_PATH = "src/repro/sim/fixture.py"
PLAIN_PATH = "src/repro/lob/fixture.py"


def run(source: str, path: str = PLAIN_PATH, codes: list[str] | None = None):
    return lint_source(textwrap.dedent(source), path, codes)


def visible(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if not f.suppressed]


def codes_of(findings: list[Finding]) -> list[str]:
    return [f.rule for f in visible(findings)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_has_the_per_file_rules():
    assert sorted(all_rules()) == ["RL001", "RL002", "RL003", "RL004", "RL005"]


def test_registry_has_the_project_rules():
    from repro.lint.project_rules import all_project_rules

    assert sorted(all_project_rules()) == ["RL007", "RL008", "RL009"]


# ---------------------------------------------------------------------------
# RL001 — no nondeterminism in simulator packages
# ---------------------------------------------------------------------------


def test_rl001_flags_wall_clock_in_sim_scope():
    findings = run(
        """
        import time

        def stamp():
            return time.perf_counter_ns()
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == ["RL001"]
    assert "time.perf_counter_ns" in findings[0].message


def test_rl001_resolves_import_aliases():
    findings = run(
        """
        import numpy as np

        def draw():
            return np.random.rand()
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == ["RL001"]
    assert "numpy.random.rand" in findings[0].message


def test_rl001_allows_seeded_generators():
    findings = run(
        """
        import numpy as np
        import random

        def make(seed):
            return np.random.default_rng(seed), random.Random(seed)
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == []


def test_rl001_flags_from_import_of_global_rng():
    findings = run("from random import randint\n", path=SIM_PATH)
    assert codes_of(findings) == ["RL001"]


def test_rl001_out_of_scope_paths_are_clean():
    source = "import time\n\nT0 = time.perf_counter()\n"
    assert codes_of(run(source, path="benchmarks/fixture.py")) == []
    assert codes_of(run(source, path=SIM_PATH)) == ["RL001"]


def test_rl001_line_suppression():
    findings = run(
        """
        import time

        def stamp():
            return time.time_ns()  # repro-lint: disable=RL001
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == []
    assert [f.rule for f in findings if f.suppressed] == ["RL001"]


# ---------------------------------------------------------------------------
# RL002 — unit-suffix safety
# ---------------------------------------------------------------------------


def test_rl002_flags_mixed_suffix_arithmetic():
    findings = run("total = deadline_ns + horizon_s\n", codes=["RL002"])
    assert codes_of(findings) == ["RL002"]
    assert "deadline_ns [ns]" in findings[0].message
    assert "horizon_s [s]" in findings[0].message


def test_rl002_flags_mixed_suffix_comparison_chain():
    findings = run("ok = start_ns < cutoff_ms < end_ns\n", codes=["RL002"])
    # Both adjacent pairs disagree: ns vs ms, ms vs ns.
    assert codes_of(findings) == ["RL002", "RL002"]


def test_rl002_same_unit_and_unsuffixed_operands_are_clean():
    findings = run(
        """
        total_ns = start_ns + delta_ns
        scaled = value * freq_hz
        plain = count + 1
        """,
        codes=["RL002"],
    )
    assert codes_of(findings) == []


def test_rl002_flags_wrong_unit_into_helper():
    findings = run("x = ns_to_us(delay_ms)\n", codes=["RL002"])
    assert codes_of(findings) == ["RL002"]
    assert "expects a value in [ns]" in findings[0].message


def test_rl002_flags_float_literal_to_ns_helper():
    findings = run("x = ns_to_sec(1.5)\n", codes=["RL002"])
    assert codes_of(findings) == ["RL002"]
    assert "int-ns convention" in findings[0].message
    # Integer literals are fine.
    assert codes_of(run("x = ns_to_sec(1500)\n", codes=["RL002"])) == []


def test_rl002_suppression():
    findings = run(
        "total = deadline_ns + horizon_s  # repro-lint: disable=RL002\n",
        codes=["RL002"],
    )
    assert codes_of(findings) == []
    assert [f.rule for f in findings if f.suppressed] == ["RL002"]


# ---------------------------------------------------------------------------
# RL003 — env reads through repro.envcfg
# ---------------------------------------------------------------------------


def test_rl003_flags_direct_read_of_registered_variable():
    findings = run(
        """
        import os

        level = os.environ.get("REPRO_TRACE_LEVEL")
        """,
        codes=["RL003"],
    )
    assert codes_of(findings) == ["RL003"]
    assert "REPRO_TRACE_LEVEL" in findings[0].message
    assert "repro.envcfg" in findings[0].message


def test_rl003_flags_unregistered_repro_variable_with_declare_hint():
    findings = run(
        """
        import os

        x = os.getenv("REPRO_TOTALLY_NEW")
        """,
        codes=["RL003"],
    )
    assert codes_of(findings) == ["RL003"]
    assert "declare it in repro.envcfg" in findings[0].message


def test_rl003_resolves_module_level_key_constants():
    findings = run(
        """
        import os

        MY_ENV = "REPRO_TRACE_DIR"
        value = os.environ.get(MY_ENV)
        """,
        codes=["RL003"],
    )
    assert codes_of(findings) == ["RL003"]


def test_rl003_env_suffix_heuristic_catches_imported_keys():
    findings = run(
        """
        import os
        from somewhere import TRACE_DIR_ENV

        value = os.environ.get(TRACE_DIR_ENV)
        """,
        codes=["RL003"],
    )
    assert codes_of(findings) == ["RL003"]
    assert "TRACE_DIR_ENV" in findings[0].message


def test_rl003_subscript_read_flagged_but_write_allowed():
    source = """
    import os

    os.environ["REPRO_TRACE_LEVEL"] = "0"
    value = os.environ["REPRO_TRACE_LEVEL"]
    """
    findings = run(source, codes=["RL003"])
    assert codes_of(findings) == ["RL003"]  # only the Load, not the Store


def test_rl003_non_repro_reads_are_clean():
    findings = run(
        """
        import os

        home = os.environ.get("HOME")
        path = os.getenv("PATH", "")
        """,
        codes=["RL003"],
    )
    assert codes_of(findings) == []


def test_rl003_file_suppression():
    findings = run(
        """
        # repro-lint: file-disable=RL003
        import os

        a = os.environ.get("REPRO_TRACE_LEVEL")
        b = os.getenv("REPRO_TRACE_DIR")
        """,
        codes=["RL003"],
    )
    assert codes_of(findings) == []
    assert sorted(f.rule for f in findings if f.suppressed) == ["RL003", "RL003"]


# ---------------------------------------------------------------------------
# RL004 — hot-path hygiene
# ---------------------------------------------------------------------------

def hot(snippet: str) -> str:
    return "from repro.hotpath import hot_path\n" + textwrap.dedent(snippet)


def test_rl004_flags_comprehension_and_fstring():
    findings = run(
        hot(
            """
            @hot_path
            def push(values):
                squares = [v * v for v in values]
                return f"{squares}"
            """
        ),
        codes=["RL004"],
    )
    messages = [f.message for f in visible(findings)]
    assert len(messages) == 2
    assert any("comprehension" in m for m in messages)
    assert any("f-string" in m for m in messages)


def test_rl004_flags_builtin_allocation_calls():
    findings = run(
        hot(
            """
            @hot_path
            def push(x):
                return dict(a=x)
            """
        ),
        codes=["RL004"],
    )
    assert codes_of(findings) == ["RL004"]
    assert "dict() construction" in findings[0].message


def test_rl004_unguarded_logging_flagged_guarded_allowed():
    flagged = run(
        hot(
            """
            @hot_path
            def push(logger, x):
                logger.debug("saw %s", x)
            """
        ),
        codes=["RL004"],
    )
    assert codes_of(flagged) == ["RL004"]
    assert "isEnabledFor" in flagged[0].message

    guarded = run(
        hot(
            """
            import logging

            @hot_path
            def push(logger, x):
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug("saw %s", x)
            """
        ),
        codes=["RL004"],
    )
    assert codes_of(guarded) == []


def test_rl004_unmarked_functions_are_exempt():
    findings = run(
        """
        def cold(values):
            return [v * v for v in values]
        """,
        codes=["RL004"],
    )
    assert codes_of(findings) == []


def test_rl004_manifest_matches_method_by_qualname():
    # Telemetry.sample_power is in repro.hotpath.MANIFEST for this path.
    findings = run(
        """
        class Telemetry:
            def sample_power(self, x):
                return {k: x for k in ("a",)}

            def cold(self, x):
                return {k: x for k in ("a",)}
        """,
        path="src/repro/telemetry/__init__.py",
        codes=["RL004"],
    )
    assert codes_of(findings) == ["RL004"]
    assert "sample_power" in findings[0].message


def test_rl004_suppression():
    findings = run(
        hot(
            """
            @hot_path
            def push(x):
                return dict(a=x)  # repro-lint: disable=RL004
            """
        ),
        codes=["RL004"],
    )
    assert codes_of(findings) == []
    assert [f.rule for f in findings if f.suppressed] == ["RL004"]


# ---------------------------------------------------------------------------
# RL005 — __all__ consistency
# ---------------------------------------------------------------------------


def test_rl005_flags_phantom_entry():
    findings = run(
        """
        __all__ = ["real", "phantom"]

        def real():
            return 1
        """,
        codes=["RL005"],
    )
    assert codes_of(findings) == ["RL005"]
    assert "'phantom'" in findings[0].message


def test_rl005_flags_public_def_missing_from_all():
    findings = run(
        """
        __all__ = ["listed"]

        def listed():
            return 1

        def unlisted():
            return 2

        def _private():
            return 3
        """,
        codes=["RL005"],
    )
    assert codes_of(findings) == ["RL005"]
    assert "unlisted" in findings[0].message


def test_rl005_consistent_module_is_clean():
    findings = run(
        """
        from typing import TYPE_CHECKING

        __all__ = ["Widget", "CONST", "build"]

        CONST = 7

        class Widget:
            pass

        def build():
            return Widget()

        if TYPE_CHECKING:
            from somewhere import Hint  # noqa: F401
        """,
        codes=["RL005"],
    )
    assert codes_of(findings) == []


def test_rl005_no_all_or_star_import_means_silent():
    assert codes_of(run("def anything():\n    pass\n", codes=["RL005"])) == []
    assert (
        codes_of(
            run(
                '__all__ = ["x"]\nfrom os.path import *\n',
                codes=["RL005"],
            )
        )
        == []
    )


def test_rl005_suppression():
    findings = run(
        """
        __all__ = ["ghost"]  # repro-lint: disable=RL005
        """,
        codes=["RL005"],
    )
    assert codes_of(findings) == []
    assert [f.rule for f in findings if f.suppressed] == ["RL005"]


# ---------------------------------------------------------------------------
# framework: directives, ordering, CLI
# ---------------------------------------------------------------------------


def test_standalone_directive_covers_next_statement():
    findings = run(
        """
        import time

        def stamp():
            # repro-lint: disable=RL001
            return time.time()
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == []
    assert [f.rule for f in findings if f.suppressed] == ["RL001"]


def test_disable_all_suppresses_every_rule():
    findings = run(
        """
        # repro-lint: file-disable=all
        import time

        t = time.time()
        total = a_ns + b_s
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == []
    assert len(findings) >= 2 and all(f.suppressed for f in findings)


def test_findings_sorted_by_path_line_rule():
    findings = run(
        """
        import time

        total = a_ns + b_s
        t = time.time()
        """,
        path=SIM_PATH,
    )
    keys = [(f.path, f.line, f.rule) for f in findings]
    assert keys == sorted(keys)


def test_cli_exit_codes_and_json(tmp_path: Path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("total = deadline_ns + horizon_s\n")
    clean = tmp_path / "clean.py"
    clean.write_text("total_ns = a_ns + b_ns\n")

    assert lint_main([str(clean)]) == 0
    capsys.readouterr()

    assert lint_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "RL002"
    assert payload[0]["suppressed"] is False

    assert lint_main([str(tmp_path / "missing.py")]) == 2


def test_cli_stats_payload(tmp_path: Path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "total = deadline_ns + horizon_s  # repro-lint: disable=RL002\n"
        "worse = a_ns + b_s\n"
    )
    stats_file = tmp_path / "stats.json"
    assert lint_main([str(dirty), "--stats", str(stats_file)]) == 1
    capsys.readouterr()
    stats = json.loads(stats_file.read_text())
    assert stats["rules"]["RL002"] == {"unsuppressed": 1, "suppressed": 1}
    assert stats["total_unsuppressed"] == 1
    assert stats["total_suppressed"] == 1
    assert stats["files_scanned"] == 1


def test_repo_is_lint_clean():
    """The PR's acceptance bar: the whole repo lints clean from the root."""
    repo_root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint"],
        cwd=repo_root,
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(repo_root / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
    assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# RL004 — decorator resolution and manifest addressing (PR 10 fixes)
# ---------------------------------------------------------------------------


def test_rl004_recognizes_aliased_hot_path_import():
    findings = run(
        """
        from repro.hotpath import hot_path as hp

        @hp
        def step():
            return [i for i in range(4)]
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == ["RL004"]


def test_rl004_recognizes_attribute_access_decorator():
    findings = run(
        """
        import repro.hotpath as hotpath

        @hotpath.hot_path
        def step():
            return f"{1}"
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == ["RL004"]


def test_rl004_manifest_dotted_module_addressing(monkeypatch):
    import repro.hotpath as hotpath_mod

    monkeypatch.setattr(
        hotpath_mod,
        "MANIFEST",
        frozenset({"repro.sim.fixture::Collector.tick"}),
    )
    findings = run(
        """
        class Collector:
            def tick(self):
                return dict(a=1)
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == ["RL004"]


# ---------------------------------------------------------------------------
# suppression edge cases (PR 10)
# ---------------------------------------------------------------------------


def test_multi_rule_disable_on_one_line():
    findings = run(
        """
        from repro.hotpath import hot_path

        @hot_path
        def step(deadline_ns, horizon_s):
            return deadline_ns + horizon_s + len([x for x in ()])  # repro-lint: disable=RL002,RL004
        """,
        path=SIM_PATH,
    )
    assert codes_of(findings) == []
    suppressed = sorted({f.rule for f in findings if f.suppressed})
    assert suppressed == ["RL002", "RL004"]


def test_multi_rule_disable_only_silences_named_rules():
    findings = run(
        """
        import time

        def stamp(deadline_ns, horizon_s):
            return deadline_ns + horizon_s + time.time()  # repro-lint: disable=RL002
        """,
        path=SIM_PATH,
    )
    # RL002 silenced, RL001 still visible on the same line.
    assert codes_of(findings) == ["RL001"]
    assert [f.rule for f in findings if f.suppressed] == ["RL002"]


def test_file_disable_counts_in_stats(tmp_path: Path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "# repro-lint: file-disable=RL002\n"
        "total = deadline_ns + horizon_s\n"
        "more = a_ns + b_s\n"
    )
    stats_file = tmp_path / "stats.json"
    # Everything suppressed -> exit 0, but --stats still records both.
    assert lint_main([str(dirty), "--stats", str(stats_file)]) == 0
    capsys.readouterr()
    stats = json.loads(stats_file.read_text())
    assert stats["rules"]["RL002"] == {"unsuppressed": 0, "suppressed": 2}
    assert stats["total_unsuppressed"] == 0


def test_strict_suppressions_flags_stale_directive(tmp_path: Path, capsys):
    stale = tmp_path / "stale.py"
    stale.write_text(
        "# repro-lint: disable=RL001\n"
        "x_ns = 1\n"
    )
    assert lint_main([str(stale)]) == 0
    capsys.readouterr()
    assert lint_main([str(stale), "--strict-suppressions"]) == 1
    out = capsys.readouterr().out
    assert "stale suppression" in out and "RL001" in out


def test_strict_suppressions_keeps_live_directive(tmp_path: Path, capsys):
    live = tmp_path / "live.py"
    live.write_text("total = deadline_ns + horizon_s  # repro-lint: disable=RL002\n")
    assert lint_main([str(live), "--strict-suppressions"]) == 0
    capsys.readouterr()
