"""Behavioural pin for :mod:`repro.envcfg`.

The registry replaced ad-hoc ``os.environ`` parsing at its call sites;
these tests pin the exact semantics those sites relied on — clamping for
the numeric grids, error policy for junk — plus the round-trip
guarantee: every declared variable is documented in EXPERIMENTS.md's
generated table.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import envcfg
from repro.errors import SimulationError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in envcfg.declared():
        monkeypatch.delenv(var.name, raising=False)


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


def test_registry_contents_and_defaults():
    by_name = {var.name: var for var in envcfg.declared()}
    assert set(by_name) == {
        "REPRO_TRACE_DIR",
        "REPRO_TRACE_LEVEL",
        "REPRO_WORKLOAD_CACHE",
        "REPRO_BENCH_JOBS",
        "REPRO_BENCH_RETRIES",
        "REPRO_BENCH_DURATION",
        "REPRO_BENCH_TIMEOUT_S",
        "REPRO_CAMPAIGN_DIR",
        "REPRO_CAMPAIGN_DURATION",
        "REPRO_CAMPAIGN_SEED",
        "REPRO_METRICS",
        "REPRO_METRICS_FLUSH_NS",
        "REPRO_METRICS_EXPORT",
        "REPRO_TAPE_CACHE",
        "REPRO_LINT_CACHE",
    }
    assert {var.kind for var in by_name.values()} == {"int", "float", "path"}
    assert by_name["REPRO_TAPE_CACHE"].default is None
    assert by_name["REPRO_METRICS"].default == 1
    assert by_name["REPRO_METRICS_FLUSH_NS"].default == 0
    assert by_name["REPRO_METRICS_EXPORT"].default is None
    assert by_name["REPRO_TRACE_LEVEL"].default == 2
    assert by_name["REPRO_BENCH_JOBS"].default == 1
    assert by_name["REPRO_BENCH_DURATION"].default == 60.0
    assert by_name["REPRO_BENCH_TIMEOUT_S"].default == 0.0
    assert by_name["REPRO_CAMPAIGN_DIR"].default is None
    assert by_name["REPRO_CAMPAIGN_DURATION"].default == 3.0
    assert by_name["REPRO_CAMPAIGN_SEED"].default == 1


def test_lookup_rejects_unregistered_names():
    assert envcfg.is_declared("REPRO_TRACE_LEVEL")
    assert not envcfg.is_declared("REPRO_NOPE")
    with pytest.raises(SimulationError):
        envcfg.lookup("REPRO_NOPE")
    with pytest.raises(SimulationError):
        envcfg.raw("REPRO_NOPE")


def test_declarations_validate_themselves():
    with pytest.raises(ValueError):
        envcfg.EnvVar("NOT_REPRO", "int", 1, "doc")
    with pytest.raises(ValueError):
        envcfg.EnvVar("REPRO_X", "complex", 1, "doc")
    with pytest.raises(ValueError):
        envcfg.EnvVar("REPRO_X", "int", 1, "doc", on_error="explode")
    # Only int, float and path variables exist.
    for kind in ("bool", "choice"):
        with pytest.raises(ValueError):
            envcfg.EnvVar("REPRO_X", kind, "a", "doc")


def test_accessors_enforce_declared_kind():
    with pytest.raises(SimulationError):
        envcfg.get_int("REPRO_TRACE_DIR")
    with pytest.raises(SimulationError):
        envcfg.get_float("REPRO_BENCH_JOBS")
    with pytest.raises(SimulationError):
        envcfg.get_path("REPRO_BENCH_DURATION")
    with pytest.raises(SimulationError):
        envcfg.get_int("REPRO_BENCH_TIMEOUT_S")


# ---------------------------------------------------------------------------
# int / float: defaults, clamping, error policy
# ---------------------------------------------------------------------------


def test_int_default_and_override():
    assert envcfg.get_int("REPRO_BENCH_JOBS") == 1
    assert envcfg.get_int("REPRO_BENCH_JOBS", default=4) == 4


def test_int_clamps_into_declared_range(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
    assert envcfg.get_int("REPRO_BENCH_JOBS") == 1  # minimum=1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "-3")
    assert envcfg.get_int("REPRO_BENCH_JOBS") == 1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "8")
    assert envcfg.get_int("REPRO_BENCH_JOBS") == 8
    monkeypatch.setenv("REPRO_TRACE_LEVEL", "9")
    assert envcfg.get_int("REPRO_TRACE_LEVEL") == 2  # maximum=2


def test_int_error_policy_raise_vs_default(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "lots")
    with pytest.raises(SimulationError, match="must be an integer"):
        envcfg.get_int("REPRO_BENCH_JOBS")
    monkeypatch.setenv("REPRO_TRACE_LEVEL", "verbose")
    assert envcfg.get_int("REPRO_TRACE_LEVEL") == 2  # on_error='default'


def test_empty_value_means_default(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "")
    assert envcfg.get_int("REPRO_BENCH_JOBS") == 1
    monkeypatch.setenv("REPRO_BENCH_DURATION", "")
    assert envcfg.get_float("REPRO_BENCH_DURATION") == 60.0


def test_float_parse_clamp_and_raise(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DURATION", "2.5")
    assert envcfg.get_float("REPRO_BENCH_DURATION") == 2.5
    monkeypatch.setenv("REPRO_BENCH_DURATION", "-1")
    assert envcfg.get_float("REPRO_BENCH_DURATION") == 0.0  # minimum=0
    monkeypatch.setenv("REPRO_BENCH_DURATION", "brief")
    with pytest.raises(SimulationError, match="must be a number"):
        envcfg.get_float("REPRO_BENCH_DURATION")


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------


def test_path_unset_and_empty_mean_none(monkeypatch):
    assert envcfg.get_path("REPRO_TRACE_DIR") is None
    monkeypatch.setenv("REPRO_TRACE_DIR", "")
    assert envcfg.get_path("REPRO_TRACE_DIR") is None
    monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/traces")
    assert envcfg.get_path("REPRO_TRACE_DIR") == "/tmp/traces"
    assert envcfg.raw("REPRO_TRACE_DIR") == "/tmp/traces"


# ---------------------------------------------------------------------------
# round-trip: registry <-> documentation
# ---------------------------------------------------------------------------


def test_env_table_lists_every_declared_variable():
    table = envcfg.env_table_markdown()
    for var in envcfg.declared():
        assert f"`{var.name}`" in table
        assert var.default_text in table


def test_experiments_md_documents_every_variable_inside_markers():
    experiments = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    text = experiments.read_text()
    block = re.search(
        r"<!-- env-table:begin -->\n(.*?)<!-- env-table:end -->",
        text,
        re.DOTALL,
    )
    assert block is not None, "EXPERIMENTS.md lost its env-table markers"
    generated = envcfg.env_table_markdown()
    assert generated in block.group(1), (
        "EXPERIMENTS.md env table is stale — regenerate with "
        "`python -m repro.lint --env-table`"
    )


def test_default_text_rendering():
    assert envcfg.TRACE_DIR.default_text == "unset"
    assert envcfg.CAMPAIGN_DURATION.default_text == "3"
    assert envcfg.BENCH_DURATION.default_text == "60"
    assert envcfg.TRACE_LEVEL.default_text == "2"
