"""Central registry of ``REPRO_*`` environment variables.

Every environment variable the library reads is declared here — name,
type, default, and documentation — and read through the typed accessors
below.  Ad-hoc ``os.environ`` reads of ``REPRO_*`` keys anywhere else
are a lint violation (rule RL003 in :mod:`repro.lint`): the registry is
what makes the configuration surface enumerable, documents it in one
place, and lets ``python -m repro.lint --env-table`` regenerate the
EXPERIMENTS.md table instead of letting prose drift from code.

Variables are ``int``, ``float`` or ``path`` valued.  Numeric variables
declare bounds (always clamped into range, the way ``REPRO_BENCH_JOBS=0``
has always meant 1) and a parse-error policy: ``default`` falls back
silently on junk (trace level must never crash a run), ``raise`` refuses
to start with a misconfigured grid (worker counts, retry budgets).  No
variable selects an implementation: every code path that ships is the
one that runs.

Reads are intentionally *not* cached: tests and the benchmark drivers
flip these variables mid-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Iterator

from repro.errors import SimulationError

__all__ = [
    "EnvVar",
    "declared",
    "env_table_markdown",
    "get_float",
    "get_int",
    "get_path",
    "is_declared",
    "lookup",
    "raw",
]


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one ``REPRO_*`` environment variable."""

    name: str
    kind: str  # 'int' | 'float' | 'path'
    default: object
    doc: str
    minimum: float | None = None
    maximum: float | None = None
    # What an unparseable value does: 'raise' (SimulationError) or
    # 'default' (silently fall back).  Out-of-range numerics always
    # clamp into [minimum, maximum].
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "path"):
            raise ValueError(f"unknown envcfg kind {self.kind!r}")
        if self.on_error not in ("raise", "default"):
            raise ValueError(f"unknown envcfg error policy {self.on_error!r}")
        if not self.name.startswith("REPRO_"):
            raise ValueError(f"environment variable {self.name!r} must be REPRO_*")

    @property
    def default_text(self) -> str:
        """Rendering of the default for the generated table."""
        if self.default is None:
            return "unset"
        return f"{self.default:g}" if self.kind == "float" else str(self.default)


_REGISTRY: dict[str, EnvVar] = {}


def _declare(var: EnvVar) -> EnvVar:
    if var.name in _REGISTRY:
        raise ValueError(f"duplicate envcfg declaration {var.name}")
    _REGISTRY[var.name] = var
    return var


TRACE_DIR = _declare(
    EnvVar(
        "REPRO_TRACE_DIR",
        "path",
        None,
        "Directory for per-run JSONL telemetry traces; unset disables "
        "tracing (every back-test, including the benchmark drivers, "
        "honours it without per-call plumbing).",
    )
)

TRACE_LEVEL = _declare(
    EnvVar(
        "REPRO_TRACE_LEVEL",
        "int",
        2,
        "Tracing detail: 0 counters only, 1 light mode (ring buffers, "
        "summary events), 2 full per-query spans. Junk values fall back "
        "to 2 — telemetry must never crash a run.",
        minimum=0,
        maximum=2,
        on_error="default",
    )
)

WORKLOAD_CACHE = _declare(
    EnvVar(
        "REPRO_WORKLOAD_CACHE",
        "path",
        None,
        "Directory for the on-disk (.npz) synthetic-workload cache; "
        "unset keeps caching in-memory only.",
    )
)

BENCH_JOBS = _declare(
    EnvVar(
        "REPRO_BENCH_JOBS",
        "int",
        1,
        "Default worker count for the parallel experiment runner "
        "(1 = serial, deterministic inline execution).",
        minimum=1,
    )
)

BENCH_RETRIES = _declare(
    EnvVar(
        "REPRO_BENCH_RETRIES",
        "int",
        1,
        "Pool rebuilds granted when a benchmark worker process dies "
        "mid-grid before the affected specs report RunFailure.",
        minimum=0,
    )
)

BENCH_DURATION = _declare(
    EnvVar(
        "REPRO_BENCH_DURATION",
        "float",
        60.0,
        "Simulated market seconds per benchmark workload (figures use "
        "300 for full fidelity, CI uses 6 for the smoke run).",
        minimum=0.0,
    )
)

BENCH_TIMEOUT_S = _declare(
    EnvVar(
        "REPRO_BENCH_TIMEOUT_S",
        "float",
        0.0,
        "Per-run wall-clock timeout in seconds for pooled benchmark "
        "runs (jobs > 1): a run exceeding it is contained as a "
        "RunFailure (its worker is terminated) instead of hanging the "
        "grid. 0 disables the timeout; inline runs (jobs=1) are never "
        "preempted.",
        minimum=0.0,
    )
)

METRICS = _declare(
    EnvVar(
        "REPRO_METRICS",
        "int",
        1,
        "Metrics-registry enable level: 0 off (shared null instruments, "
        "zero allocation), 1 on (counters, gauges, log2 histograms, "
        "run-manifest summaries). Junk values fall back to 1 — metrics "
        "must never crash a run.",
        minimum=0,
        maximum=1,
        on_error="default",
    )
)

METRICS_FLUSH_NS = _declare(
    EnvVar(
        "REPRO_METRICS_FLUSH_NS",
        "int",
        0,
        "Sim-time metrics flush cadence in nanoseconds: every interval, "
        "a metrics snapshot event is appended to the run's JSONL trace "
        "(requires REPRO_TRACE_DIR). 0 disables periodic flushing; the "
        "end-of-run snapshot is always available via the run manifest.",
        minimum=0,
        on_error="default",
    )
)

TAPE_CACHE = _declare(
    EnvVar(
        "REPRO_TAPE_CACHE",
        "path",
        None,
        "Directory for the on-disk level of the tick-tape cache "
        "(compressed npz, content-keyed by market config + seed + "
        "duration). Unset disables the disk level; the in-process "
        "memory level is always on for repro.market.tape_cache users.",
    )
)

CAMPAIGN_DIR = _declare(
    EnvVar(
        "REPRO_CAMPAIGN_DIR",
        "path",
        None,
        "Default output directory for scenario campaigns (per-run JSONL "
        "traces + campaign_report.json); `python -m repro.campaign run "
        "--dir` overrides it, and with neither set a temporary "
        "directory is used and discarded.",
    )
)

CAMPAIGN_DURATION = _declare(
    EnvVar(
        "REPRO_CAMPAIGN_DURATION",
        "float",
        3.0,
        "Default simulated seconds per campaign scenario run (the CI "
        "smoke campaign uses this default; research campaigns pass "
        "--duration for full-fidelity sweeps).",
        minimum=0.5,
    )
)

CAMPAIGN_SEED = _declare(
    EnvVar(
        "REPRO_CAMPAIGN_SEED",
        "int",
        1,
        "Default base seed for campaign runs: each scenario runs at "
        "(base seed + its per-scenario offset), so one knob reseeds a "
        "whole campaign reproducibly.",
        minimum=0,
    )
)

METRICS_EXPORT = _declare(
    EnvVar(
        "REPRO_METRICS_EXPORT",
        "path",
        None,
        "Directory for per-run metric exports: each back-test writes "
        "<run>.manifest.json (config, env snapshot, metric summaries, "
        "histogram percentiles) and <run>.prom (Prometheus-style text "
        "exposition) there; unset disables exporting.",
    )
)

LINT_CACHE = _declare(
    EnvVar(
        "REPRO_LINT_CACHE",
        "path",
        None,
        "Directory for the incremental lint cache: per-file findings "
        "and project facts keyed by content + path + lint-engine "
        "version, so a warm `python -m repro.lint` run re-parses only "
        "changed files. Unset disables caching; `--cache DIR` "
        "overrides.",
    )
)


def declared() -> Iterator[EnvVar]:
    """All registered variables, in declaration (documentation) order."""
    return iter(_REGISTRY.values())


def is_declared(name: str) -> bool:
    """True when ``name`` is a registered variable."""
    return name in _REGISTRY


def lookup(name: str) -> EnvVar:
    """The declaration for ``name`` (raises on unregistered names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"{name} is not a registered REPRO_* variable"
        ) from None


def raw(name: str) -> str | None:
    """The raw environment value for a registered variable, or None."""
    lookup(name)
    return os.environ.get(name)


def get_path(name: str) -> str | None:
    """A path-valued variable: the raw string, or None when unset/empty."""
    var = lookup(name)
    if var.kind != "path":
        raise SimulationError(f"{name} is declared {var.kind}, not path")
    value = os.environ.get(name)
    return value if value else None


def _bounded(var: EnvVar, value: float) -> float:
    if var.minimum is not None:
        value = max(value, var.minimum)
    if var.maximum is not None:
        value = min(value, var.maximum)
    return value


def get_int(name: str, default: int | None = None) -> int:
    """An integer variable; ``default`` overrides the declared default."""
    var = lookup(name)
    if var.kind != "int":
        raise SimulationError(f"{name} is declared {var.kind}, not int")
    fallback = int(var.default) if default is None else default  # type: ignore[arg-type]
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        parsed = int(value)
    except ValueError:
        if var.on_error == "raise":
            raise SimulationError(
                f"{name} must be an integer, got {value!r}"
            ) from None
        return fallback
    return int(_bounded(var, parsed))


def get_float(name: str, default: float | None = None) -> float:
    """A float variable; ``default`` overrides the declared default."""
    var = lookup(name)
    if var.kind != "float":
        raise SimulationError(f"{name} is declared {var.kind}, not float")
    fallback = float(var.default) if default is None else default  # type: ignore[arg-type]
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        parsed = float(value)
    except ValueError:
        if var.on_error == "raise":
            raise SimulationError(
                f"{name} must be a number, got {value!r}"
            ) from None
        return fallback
    return _bounded(var, parsed)


def env_table_markdown() -> str:
    """The EXPERIMENTS.md environment-variable table, generated.

    Regenerate with ``python -m repro.lint --env-table``; rule RL003
    cross-checks that every registered name appears in EXPERIMENTS.md.
    """
    lines = [
        "| Variable | Type | Default | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for var in declared():
        lines.append(
            f"| `{var.name}` | {var.kind} | {var.default_text} | {var.doc} |"
        )
    return "\n".join(lines)
