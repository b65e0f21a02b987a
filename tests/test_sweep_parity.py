"""Vectorized sweep ⇔ reference Algorithm-1 loop: decision-for-decision parity.

The vectorized sweep is only allowed to change *how fast* Algorithm 1
runs, never *what* it decides.  These property-style tests drive both
implementations through randomized profiles, deadline mixes, power
budgets and frequency floors and require

- identical :class:`ScheduleDecision` objects (point, batch, timings,
  and the exact score bits), including the None case, and
- identical decision-log streams (considered / feasible /
  rejected_deadline / rejected_power counts, floor relaxation).
"""

import numpy as np
import pytest

from repro import envcfg
from repro.accelerator.power import DVFSTable
from repro.baselines.modelcosts import ModelCost
from repro.baselines.profiles import lighttrader_profile
from repro.core.scheduler import SWEEP_REFERENCE_ENV, WorkloadScheduler
from repro.core.sweepgrid import SweepGrid
from repro.errors import SchedulingError
from repro.telemetry.decisions import DecisionLog

NOW = 5_000_000  # ns


@pytest.fixture(scope="module")
def profile():
    profile = lighttrader_profile()
    # Synthetic zoo models stretch the grids beyond the calibrated trio.
    rng = np.random.default_rng(11)
    for i in range(3):
        profile.register(
            ModelCost(
                name=f"synthetic_{i}",
                cycles_batch1=float(rng.uniform(5e4, 5e6)),
                batch_utilisation=float(rng.uniform(0.2, 0.95)),
                activity=float(rng.uniform(0.5, 3.0)),
                total_ops=1e8,
                weight_bytes=1 << 20,
            )
        )
    return profile


def _random_case(rng):
    depth = int(rng.integers(1, 17))
    slack = rng.lognormal(mean=np.log(1.5e6), sigma=1.2, size=depth)
    deadlines = [NOW - 2_000_000 + int(s) for s in slack]  # some already missed
    budget = float(rng.uniform(2.0, 70.0))
    floor = float(rng.choice([0.0, 0.8e9, 1.4e9, 2.0e9]))
    return deadlines, budget, floor


@pytest.mark.parametrize("metric", ["ppw", "latency", "throughput"])
@pytest.mark.parametrize("max_batch", [4, 16])
def test_randomized_sweep_parity(profile, metric, max_batch):
    table = DVFSTable(cap_hz=2.2e9)
    models = ["deeplob", "translob", "vanilla_cnn", "synthetic_0", "synthetic_1"]
    vec_log, ref_log = DecisionLog(), DecisionLog()
    vec = WorkloadScheduler(
        profile, table, max_batch=max_batch, metric=metric, log=vec_log, vectorized=True
    )
    ref = WorkloadScheduler(
        profile, table, max_batch=max_batch, metric=metric, log=ref_log, vectorized=False
    )
    seed = {"ppw": 1, "latency": 2, "throughput": 3}[metric] * 100 + max_batch
    rng = np.random.default_rng(seed)
    decided = 0
    for trial in range(150):
        model = models[int(rng.integers(0, len(models)))]
        deadlines, budget, floor = _random_case(rng)
        got = vec.decide(model, NOW, deadlines, budget, floor)
        want = ref.decide(model, NOW, deadlines, budget, floor)
        assert got == want, (
            f"trial {trial}: vectorized {got} != reference {want} "
            f"(model={model}, budget={budget}, floor={floor}, deadlines={deadlines})"
        )
        decided += want is not None
    # The mix must exercise both outcomes to mean anything.
    assert 0 < decided < 150 * 0.999
    assert vec_log.events == ref_log.events


def test_parity_without_decision_log(profile):
    """The uninstrumented fast path picks the same candidates."""
    table = DVFSTable(cap_hz=2.0e9)
    vec = WorkloadScheduler(profile, table, vectorized=True)
    ref = WorkloadScheduler(profile, table, vectorized=False)
    rng = np.random.default_rng(42)
    for _ in range(100):
        deadlines, budget, floor = _random_case(rng)
        assert vec.decide("deeplob", NOW, deadlines, budget, floor) == ref.decide(
            "deeplob", NOW, deadlines, budget, floor
        )


def test_scores_are_bit_identical(profile):
    """Not just the same argmax: the reported score has the same bits."""
    table = DVFSTable(cap_hz=2.2e9)
    vec = WorkloadScheduler(profile, table, vectorized=True)
    ref = WorkloadScheduler(profile, table, vectorized=False)
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(120):
        deadlines, budget, floor = _random_case(rng)
        got = vec.decide("translob", NOW, deadlines, budget, floor)
        want = ref.decide("translob", NOW, deadlines, budget, floor)
        if want is None:
            assert got is None
            continue
        assert got.ppw.hex() == want.ppw.hex()
        assert got.power_w.hex() == want.power_w.hex()
        compared += 1
    assert compared > 10


def test_reference_env_flag(profile, monkeypatch):
    table = DVFSTable(cap_hz=2.0e9)
    monkeypatch.setenv(SWEEP_REFERENCE_ENV, "1")
    assert WorkloadScheduler(profile, table).vectorized is False
    monkeypatch.delenv(SWEEP_REFERENCE_ENV)
    assert WorkloadScheduler(profile, table).vectorized is True
    assert envcfg.raw(SWEEP_REFERENCE_ENV) is None


def test_vectorized_falls_back_without_grid_support(profile):
    """Profiles without sweep_grid() transparently use the reference loop."""

    class Oracle:
        def t_total_ns(self, model, point, batch_size):
            return profile.t_total_ns(model, point, batch_size)

        def power_w(self, model, point, batch_size):
            return profile.power_w(model, point, batch_size)

    table = DVFSTable(cap_hz=2.0e9)
    bare = WorkloadScheduler(Oracle(), table, vectorized=True)
    full = WorkloadScheduler(profile, table, vectorized=True)
    decision = bare.decide("deeplob", NOW, [NOW + 3_000_000], 55.0)
    assert decision == full.decide("deeplob", NOW, [NOW + 3_000_000], 55.0)
    assert decision is not None


def test_thermal_cap_parity(profile):
    """cap_freq_hz (thermal throttling) prunes both paths identically."""
    table = DVFSTable(cap_hz=2.2e9)
    vec_log, ref_log = DecisionLog(), DecisionLog()
    vec = WorkloadScheduler(profile, table, log=vec_log, vectorized=True)
    ref = WorkloadScheduler(profile, table, log=ref_log, vectorized=False)
    rng = np.random.default_rng(77)
    committed_below_cap = 0
    for trial in range(120):
        deadlines, budget, floor = _random_case(rng)
        cap = float(rng.choice([0.6e9, 1.0e9, 1.4e9, 2.0e9]))
        got = vec.decide("deeplob", NOW, deadlines, budget, floor, cap_freq_hz=cap)
        want = ref.decide("deeplob", NOW, deadlines, budget, floor, cap_freq_hz=cap)
        assert got == want, f"trial {trial}: cap={cap}: {got} != {want}"
        if got is not None:
            assert got.point.freq_hz <= cap + 1e-3
            committed_below_cap += 1
    assert committed_below_cap > 10
    assert vec_log.events == ref_log.events


def test_cap_below_every_point_yields_none(profile):
    table = DVFSTable(cap_hz=2.2e9)
    for vectorized in (True, False):
        scheduler = WorkloadScheduler(profile, table, vectorized=vectorized)
        decision = scheduler.decide(
            "deeplob", NOW, [NOW + 5_000_000], 55.0, cap_freq_hz=1.0
        )
        assert decision is None


class _GridStub:
    """A profile whose (t_total, power) per (point row, batch) come from
    ``cell(row, batch)``; the vectorized path gets a SweepGrid of them."""

    def __init__(self, table, cell):
        self.table = table
        self.cell = cell

    def t_total_ns(self, model, point, batch_size):
        return self.cell(self.table.points.index(point), batch_size)[0]

    def power_w(self, model, point, batch_size):
        return self.cell(self.table.points.index(point), batch_size)[1]

    def sweep_grid(self, model, table, max_batch):
        return SweepGrid.build(self, model, table, max_batch)


def _pair(stub, table, metric="ppw", max_batch=4):
    vec_log, ref_log = DecisionLog(), DecisionLog()
    vec = WorkloadScheduler(
        stub, table, max_batch=max_batch, metric=metric, log=vec_log, vectorized=True
    )
    ref = WorkloadScheduler(
        stub, table, max_batch=max_batch, metric=metric, log=ref_log, vectorized=False
    )
    return vec, ref, vec_log, ref_log


def _assert_same(got, want):
    assert got == want
    if want is not None:
        assert got.ppw.hex() == want.ppw.hex()
        assert got.power_w.hex() == want.power_w.hex()


@pytest.mark.parametrize("metric", ["ppw", "latency", "throughput"])
def test_tied_scores_pick_like_the_reference(metric):
    """Every row repeats the same (t_total, power), so each score ties
    across all operating points (and, for ppw, across some batches): the
    reference keeps the first of equals, slowest point and smallest
    batch first, and so must the ranked scan."""
    table = DVFSTable(cap_hz=2.2e9)
    stub = _GridStub(table, lambda row, b: (100_000 * b, 2.0 + 0.5 * (b % 2)))
    vec, ref, vec_log, ref_log = _pair(stub, table, metric)
    rng = np.random.default_rng(5)
    decided = 0
    for __ in range(200):
        depth = int(rng.integers(1, 5))
        deadlines = [NOW + int(rng.integers(50_000, 500_000)) for __ in range(depth)]
        budget = float(rng.choice([1.0, 2.0, 2.5, 3.0]))
        floor = float(rng.choice([0.0, 1.4e9]))
        want = ref.decide("stub", NOW, deadlines, budget, floor)
        _assert_same(vec.decide("stub", NOW, deadlines, budget, floor), want)
        decided += want is not None
    assert 0 < decided < 200
    assert vec_log.events == ref_log.events


def test_only_the_last_ranked_candidate_feasible():
    """The scan walks the whole ranking: only the lowest-scored candidate
    (fastest point, batch 1; power doubling per row keeps its PPW lowest)
    meets the deadline, and one nanosecond less leaves none."""
    table = DVFSTable(cap_hz=2.2e9)
    top = len(table) - 1
    stub = _GridStub(
        table, lambda row, b: (10_000 * b + 1_000 * (top - row) + 1_000, 2.0**row)
    )
    vec, ref, vec_log, ref_log = _pair(stub, table, max_batch=4)
    ranked = sorted(
        (-ref._score(b, *stub.cell(row, b)), row, b)
        for row in range(len(table))
        for b in range(1, 5)
    )
    assert ranked[-1][1:] == (top, 1)
    fastest = stub.cell(top, 1)[0]
    for slack in (fastest, fastest - 1):
        deadlines = [NOW + slack] * 4
        want = ref.decide("stub", NOW, deadlines, 1e9)
        _assert_same(vec.decide("stub", NOW, deadlines, 1e9), want)
        if slack == fastest:
            assert (want.point, want.batch_size) == (table.max_point, 1)
        else:
            assert want is None
    assert vec_log.events == ref_log.events


def test_non_finite_score_refused():
    """A zero-power cell scores +inf, where argmax and a sort disagree;
    both paths raise instead of deciding."""
    table = DVFSTable(cap_hz=2.2e9)
    stub = _GridStub(table, lambda row, b: (100_000 * b, 0.0 if row == 3 else 2.0))
    vec, ref, __, __ = _pair(stub, table)
    deadlines = [NOW + 10_000_000] * 4
    with np.errstate(divide="ignore"):
        with pytest.raises(SchedulingError):
            vec.decide("stub", NOW, deadlines, 55.0)
    with pytest.raises(SchedulingError):
        ref.decide("stub", NOW, deadlines, 55.0)
