"""Named, seeded scenario specs: workload knobs + fault templates.

A :class:`ScenarioSpec` composes the regime-switching traffic generator
(:class:`~repro.sim.workload.TrafficSpec` knobs: flash-crash bursts,
thin-liquidity opens, volatility shifts) with declarative
:class:`FaultTemplate` layers (feed-outage storms, device-failure
cascades, thermal-throttle ramps, DMA-stall trains) and *lowers* to the
existing :class:`~repro.bench.runner.RunSpec` — the campaign harness is
the same code path the research drivers use, not a parallel stack.

Everything is a frozen dataclass sampled from one seed: the same
(scenario, seed, duration) always lowers to the byte-identical run, so
campaign verdicts are reproducible and the chaos gate can double as a
regression net.  Fault layers are merged via
:func:`~repro.faults.plan.merge_plans` (deterministic (t_ns, kind, seq)
tie-break), never hand-sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import RunSpec, WorkloadSpec
from repro.errors import SimulationError
from repro.faults.plan import (
    DEVICE_FAILURE,
    DMA_STALL,
    THERMAL_THROTTLE,
    FaultEvent,
    FaultPlan,
    merge_plans,
    seeded_plan,
)
from repro.sim.backtest import SimConfig
from repro.sim.workload import Regime, TrafficSpec
from repro.units import GHZ, sec_to_ns, us_to_ns

__all__ = [
    "CAMPAIGNS",
    "FaultTemplate",
    "ScenarioSpec",
    "campaign_names",
    "campaign_scenarios",
    "device_failure_cascade_events",
    "dma_stall_train_events",
    "register_campaign",
    "register_scenario",
    "scenario",
    "scenario_names",
    "thermal_ramp_events",
]


@dataclass(frozen=True)
class FaultTemplate:
    """One declarative layer of a scenario's fault schedule.

    The rate/probability fields lower through
    :func:`~repro.faults.plan.seeded_plan` at ``scenario seed + salt``
    (distinct salts keep stacked layers on independent RNG streams);
    ``explicit`` events pass through untouched — that is how the shaped
    templates below (cascades, ramps, stall trains) pin exact times.
    """

    salt: int = 0
    device_failure_rate_hz: float = 0.0
    failure_downtime_s: float = 2.0
    corruption_rate_hz: float = 0.0
    throttle_rate_hz: float = 0.0
    throttle_duration_s: float = 0.8
    throttle_cap_ghz: float = 1.2
    stall_rate_hz: float = 0.0
    stall_duration_us: float = 300.0
    packet_loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay_us: float = 150.0
    explicit: tuple[FaultEvent, ...] = ()

    def lower(
        self, duration_s: float, n_accelerators: int, n_ticks: int, seed: int
    ) -> FaultPlan:
        """The template's concrete :class:`FaultPlan` for one run."""
        sampled = any(
            value > 0
            for value in (
                self.device_failure_rate_hz,
                self.corruption_rate_hz,
                self.throttle_rate_hz,
                self.stall_rate_hz,
                self.packet_loss_prob,
                self.duplicate_prob,
                self.reorder_prob,
            )
        )
        plans: list[FaultPlan] = []
        if sampled:
            plans.append(
                seeded_plan(
                    duration_s=duration_s,
                    n_accelerators=n_accelerators,
                    n_ticks=n_ticks,
                    seed=seed + self.salt,
                    device_failure_rate_hz=self.device_failure_rate_hz,
                    failure_downtime_s=self.failure_downtime_s,
                    corruption_rate_hz=self.corruption_rate_hz,
                    throttle_rate_hz=self.throttle_rate_hz,
                    throttle_duration_s=self.throttle_duration_s,
                    throttle_cap_ghz=self.throttle_cap_ghz,
                    stall_rate_hz=self.stall_rate_hz,
                    stall_duration_us=self.stall_duration_us,
                    packet_loss_prob=self.packet_loss_prob,
                    duplicate_prob=self.duplicate_prob,
                    reorder_prob=self.reorder_prob,
                    reorder_delay_us=self.reorder_delay_us,
                )
            )
        if self.explicit:
            plans.append(FaultPlan(events=self.explicit))
        if not plans:
            return FaultPlan()
        return merge_plans(*plans)


# --- shaped explicit-event builders --------------------------------------------


def device_failure_cascade_events(
    n_accelerators: int,
    start_s: float = 0.4,
    spacing_s: float = 0.35,
    downtime_s: float = 0.5,
) -> tuple[FaultEvent, ...]:
    """A rolling failure wave: devices fail one after another, recover.

    ``spacing >= downtime`` keeps at most one device down at a time; the
    tighter default overlap quarantines two at once, which is what makes
    Algorithm 2's redistribution (and the quarantine-isolation
    invariant) actually exercise under the cascade.
    """
    events = []
    for accel in range(n_accelerators):
        events.append(
            FaultEvent(
                t_ns=sec_to_ns(start_s + accel * spacing_s),
                kind=DEVICE_FAILURE,
                accel_id=accel,
                duration_ns=sec_to_ns(downtime_s),
            )
        )
    return tuple(events)


def thermal_ramp_events(
    n_accelerators: int,
    start_s: float = 0.3,
    step_s: float = 0.4,
    caps_ghz: tuple[float, ...] = (1.6, 1.4, 1.2),
    hold_s: float = 0.35,
) -> tuple[FaultEvent, ...]:
    """A throttle ramp: every device is capped at successively lower
    frequencies, each cap releasing before the next bites."""
    events = []
    for step, cap in enumerate(caps_ghz):
        t = start_s + step * step_s
        for accel in range(n_accelerators):
            events.append(
                FaultEvent(
                    t_ns=sec_to_ns(t),
                    kind=THERMAL_THROTTLE,
                    accel_id=accel,
                    duration_ns=sec_to_ns(hold_s),
                    cap_hz=cap * GHZ,
                )
            )
    return tuple(events)


def dma_stall_train_events(
    duration_s: float,
    period_s: float = 0.5,
    start_s: float = 0.25,
    stall_us: float = 400.0,
) -> tuple[FaultEvent, ...]:
    """Periodic DMA stalls across the whole run."""
    events = []
    t = start_s
    while t < duration_s:
        events.append(
            FaultEvent(t_ns=sec_to_ns(t), kind=DMA_STALL, duration_ns=us_to_ns(stall_us))
        )
        t += period_s
    return tuple(events)


# --- workload knobs -------------------------------------------------------------

# Flash crash: the calm tape collapses into long, dense sell-off bursts —
# sustained arrival pressure well past a single accelerator's service
# rate, arriving in trains rather than isolated micro-bursts.
FLASH_CRASH_TRAFFIC = TrafficSpec(
    calm=Regime("calm", rate_hz=200.0, mean_dwell_s=1.6),
    episodes=(
        Regime("selloff", rate_hz=9_000.0, mean_dwell_s=0.12),
        Regime("panic", rate_hz=45_000.0, mean_dwell_s=0.035),
    ),
    episode_weights=(0.55, 0.45),
)

# Thin-liquidity open: a near-silent pre-open tape punctuated by violent
# auction-style bursts when the book is thin.
THIN_OPEN_TRAFFIC = TrafficSpec(
    calm=Regime("preopen", rate_hz=35.0, mean_dwell_s=1.2),
    episodes=(
        Regime("auction", rate_hz=22_000.0, mean_dwell_s=0.05),
        Regime("drift", rate_hz=900.0, mean_dwell_s=0.25),
    ),
    episode_weights=(0.4, 0.6),
)

# Volatility regime shift: the calm floor itself is elevated and the mix
# leans on the mid-tier regimes — persistent pressure, not spikes.
VOLATILITY_SHIFT_TRAFFIC = TrafficSpec(
    calm=Regime("calm", rate_hz=450.0, mean_dwell_s=2.4),
    episodes=(
        Regime("elevated", rate_hz=3_000.0, mean_dwell_s=0.10),
        Regime("active", rate_hz=9_000.0, mean_dwell_s=0.08),
    ),
    episode_weights=(0.5, 0.5),
)


# --- the scenario spec -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seeded scenario: workload + faults + invariant bounds.

    ``lower()`` is the only product: a plain
    :class:`~repro.bench.runner.RunSpec` (plus its resolved seed), so a
    scenario run is exactly a bench run — byte-identical for a fixed
    (scenario, base seed, duration), whatever the job count.
    """

    name: str
    description: str
    profile: str = "lighttrader"
    model: str = "vanilla_cnn"
    n_accelerators: int = 4
    power_condition: str = "sufficient"
    workload_scheduling: bool = True
    dvfs_scheduling: bool = True
    max_batch: int = 16
    max_pending: int = 512
    traffic: TrafficSpec | None = None
    faults: tuple[FaultTemplate, ...] = ()
    # Base-seed offset: scenarios in one campaign draw distinct workload
    # and fault streams even at the same campaign seed.
    seed_offset: int = 0
    # Invariant parameters (per-scenario bounds the checkers read).
    max_miss_rate: float = 0.5
    power_epsilon_w: float = 1e-6

    def config(self) -> SimConfig:
        return SimConfig(
            model=self.model,
            n_accelerators=self.n_accelerators,
            power_condition=self.power_condition,
            workload_scheduling=self.workload_scheduling,
            dvfs_scheduling=self.dvfs_scheduling,
            max_batch=self.max_batch,
            max_pending=self.max_pending,
        )

    def workload_spec(self, duration_s: float, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            duration_s=float(duration_s),
            seed=seed,
            name=f"campaign-{self.name}",
            traffic=self.traffic,
        )

    def fault_plan(self, duration_s: float, n_ticks: int, seed: int) -> FaultPlan:
        """All fault layers lowered and merged for one run."""
        return merge_plans(
            *(
                template.lower(duration_s, self.n_accelerators, n_ticks, seed)
                for template in self.faults
            )
        )

    def lower(
        self,
        duration_s: float,
        base_seed: int,
        trace_dir: str | None = None,
        run_name: str | None = None,
    ) -> tuple[RunSpec, int]:
        """Lower to a bench :class:`RunSpec` at ``base_seed + offset``.

        Building the workload here (through the :class:`WorkloadSpec`
        memo) is what lets the feed-fault Bernoulli draws know
        ``n_ticks``; the memo hands the identical instance to the run
        itself.
        """
        seed = int(base_seed) + self.seed_offset
        workload_spec = self.workload_spec(duration_s, seed)
        n_ticks = len(workload_spec.build())
        plan = self.fault_plan(duration_s, n_ticks, seed)
        spec = RunSpec(
            profile=self.profile,
            config=self.config(),
            workload=workload_spec,
            run_name=run_name or f"{self.name}-s{seed}",
            trace_dir=trace_dir,
            faults=None if plan.empty else plan,
        )
        return spec, seed


# --- registry --------------------------------------------------------------------

_SCENARIOS: dict[str, ScenarioSpec] = {}
CAMPAIGNS: dict[str, tuple[str, ...]] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its name (tests register throwaways)."""
    if spec.name in _SCENARIOS and not replace:
        raise SimulationError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def scenario(name: str) -> ScenarioSpec:
    """The registered scenario, or a SimulationError naming the options."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise SimulationError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_SCENARIOS))}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return tuple(_SCENARIOS)


def register_campaign(name: str, scenarios: tuple[str, ...]) -> None:
    """Name a scenario set; every member must already be registered."""
    for member in scenarios:
        scenario(member)
    CAMPAIGNS[name] = tuple(scenarios)


def campaign_names() -> tuple[str, ...]:
    return tuple(CAMPAIGNS)


def campaign_scenarios(name: str) -> tuple[ScenarioSpec, ...]:
    """The scenario specs of one named campaign."""
    try:
        members = CAMPAIGNS[name]
    except KeyError:
        raise SimulationError(
            f"unknown campaign {name!r}; known: {', '.join(sorted(CAMPAIGNS))}"
        ) from None
    return tuple(scenario(member) for member in members)


# --- built-in scenarios ----------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="nominal",
        description="Calibrated headline traffic, no faults: the green baseline "
        "every invariant must pass before perturbations mean anything.",
        seed_offset=0,
    )
)

register_scenario(
    ScenarioSpec(
        name="feed_outage_storm",
        description="Dense feed corruption: heavy packet loss with duplication "
        "and reordering bursts — exercises gap detection, duplicate "
        "suppression and snapshot resync.",
        seed_offset=11,
        faults=(
            FaultTemplate(
                salt=1,
                packet_loss_prob=0.05,
                duplicate_prob=0.03,
                reorder_prob=0.03,
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="device_failure_cascade",
        description="A rolling failure wave across the cluster (overlapping "
        "quarantines) plus background corruption — exercises surrender, "
        "re-admission and Algorithm-2 power redistribution.",
        seed_offset=23,
        faults=(
            FaultTemplate(
                salt=2,
                explicit=device_failure_cascade_events(4),
                corruption_rate_hz=0.5,
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="thermal_throttle_ramp",
        description="Successively lower thermal caps across every device — "
        "DVFS must keep deadlines inside a shrinking frequency envelope.",
        seed_offset=31,
        faults=(FaultTemplate(salt=3, explicit=thermal_ramp_events(4)),),
    )
)

register_scenario(
    ScenarioSpec(
        name="dma_stall_train",
        description="Periodic DMA stalls pause query admission in windows; "
        "the queue must absorb and drain each train.",
        seed_offset=41,
        faults=(
            FaultTemplate(salt=4, explicit=dma_stall_train_events(duration_s=60.0)),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="flash_crash",
        description="Flash-crash order flow: sustained sell-off burst trains "
        "at arrival rates past single-device service capacity.",
        seed_offset=53,
        traffic=FLASH_CRASH_TRAFFIC,
    )
)

register_scenario(
    ScenarioSpec(
        name="thin_liquidity_open",
        description="Near-silent pre-open tape punctuated by violent "
        "auction-style bursts against a thin book.",
        seed_offset=61,
        traffic=THIN_OPEN_TRAFFIC,
    )
)

register_scenario(
    ScenarioSpec(
        name="volatility_regime_shift",
        description="Elevated calm floor with persistent mid-tier pressure — "
        "a regime change, not a spike.",
        seed_offset=71,
        traffic=VOLATILITY_SHIFT_TRAFFIC,
    )
)

register_scenario(
    ScenarioSpec(
        name="chaos_storm",
        description="Everything at once: failures, corruption, throttling, DMA "
        "stalls and feed faults layered over the headline traffic — the "
        "chaos-smoke gate's storm, now a named scenario.",
        seed_offset=83,
        faults=(
            FaultTemplate(
                salt=5,
                device_failure_rate_hz=2.0,
                failure_downtime_s=0.3,
                corruption_rate_hz=1.0,
                throttle_rate_hz=1.0,
                throttle_duration_s=0.2,
                stall_rate_hz=1.0,
                stall_duration_us=200.0,
            ),
            FaultTemplate(
                salt=6,
                packet_loss_prob=0.02,
                duplicate_prob=0.02,
                reorder_prob=0.02,
            ),
        ),
    )
)

register_campaign(
    "smoke",
    ("nominal", "feed_outage_storm", "device_failure_cascade", "flash_crash"),
)
register_campaign(
    "chaos",
    ("chaos_storm", "device_failure_cascade", "feed_outage_storm"),
)
register_campaign("full", scenario_names())
