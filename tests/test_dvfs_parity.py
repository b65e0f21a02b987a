"""Algorithm-2 parity: the shipping DVFS scheduler against its oracle.

:class:`~repro.core.dvfs.DVFSScheduler` builds its scan list once per
call and keeps one candidate ladder per (frequency, activity, batch);
:class:`~tests.oracles.dvfs.ReferenceDVFSScheduler` rebuilds the list
and rescans the table every round.  On random clusters (1 to 16
devices, any table point, batch, remaining time, thermal cap and
health, any budget and reserve) a random sequence of redistributions,
with reclaims between them, must leave both clusters in the same state
after every call: same return value, same point, completion time and
draw on every device (floats by ``float.hex``), same counters and same
decision-log records.  A second family puts every device on one point
and activity, where ladders differ only in batch, equal devices tie
exactly and the switch delay separates near-equal gains.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.accelerator.device import AcceleratorCluster
from repro.accelerator.power import DVFSTable
from repro.baselines.profiles import lighttrader_profile
from repro.core.dvfs import DVFSScheduler
from repro.telemetry.decisions import DecisionLog
from tests.oracles.dvfs import ReferenceDVFSScheduler

TABLE = DVFSTable()
PROFILE = lighttrader_profile()
ACTIVITIES = tuple(
    PROFILE.cost(model).activity for model in ("vanilla_cnn", "translob", "deeplob")
)
START_NS = 10_000_000

devices = st.fixed_dictionaries(
    {
        "healthy": st.sampled_from((True, True, True, False)),
        "busy": st.sampled_from((True, True, False)),
        "point": st.integers(0, len(TABLE) - 1),
        "batch": st.integers(1, 16),
        # At zero activity (leakage only) PPW can rise along a ladder
        # before it falls, so a scan's best is not its first point.
        "activity": st.sampled_from(ACTIVITIES) | st.floats(0.0, 2.0),
        "elapsed_ns": st.sampled_from((0, 1_000)) | st.integers(0, 400_000),
        "remaining_ns": st.integers(1, 600_000),
        "slack_ns": st.integers(-20_000, 800_000),
        "cap": st.none() | st.integers(0, len(TABLE) - 1),
    }
)
calls = st.tuples(
    st.sampled_from(("redistribute", "redistribute", "reclaim")),
    st.integers(0, 150_000),  # time since the previous call
    st.sampled_from((0.0, 0.0, 1.5)) | st.floats(0.0, 8.0),  # reserve or need
)


def _cluster(table: DVFSTable, specs, spare_w: float) -> AcceleratorCluster:
    """A cluster in the state ``specs`` describes, whose budget leaves
    ``spare_w`` of headroom (or is overdrawn by its magnitude)."""
    cluster = AcceleratorCluster(
        n_accelerators=len(specs),
        table=table,
        power_model=PROFILE.power_model,
        budget_w=1.0,
    )
    for device, spec in zip(cluster.devices, specs):
        device.point = table.points[spec["point"]]
        if spec["busy"]:
            issued = START_NS - spec["elapsed_ns"]
            duration = spec["elapsed_ns"] + spec["remaining_ns"]
            device.issue(
                issued,
                duration,
                spec["batch"],
                spec["activity"],
                deadline_ns=issued + duration + spec["slack_ns"],
            )
        if spec["cap"] is not None:
            device.throttle(table.points[spec["cap"]].freq_hz)
        if not spec["healthy"]:
            device.fail(START_NS)
    cluster.budget_w = max(cluster.total_power(START_NS) + spare_w, 0.5)
    return cluster


def _state(cluster: AcceleratorCluster) -> list[tuple]:
    out = []
    for device in cluster.devices:
        record = device.current
        out.append(
            (
                device.healthy,
                device.point.freq_hz.hex(),
                device.point.voltage.hex(),
                device.busy_until,
                device.available_at,
                device.transitions,
                None
                if record is None
                else (record.completion_time, record.power_w.hex(), record.point),
            )
        )
    return out


def _assert_parity(table: DVFSTable, specs, spare_w: float, script) -> None:
    shipping = DVFSScheduler(PROFILE, table, log=DecisionLog())
    reference = ReferenceDVFSScheduler(PROFILE, table, log=DecisionLog())
    ours = _cluster(table, specs, spare_w)
    theirs = _cluster(table, specs, spare_w)
    now = START_NS
    for kind, advance_ns, watts in script:
        now += advance_ns
        if kind == "redistribute":
            got = shipping.redistribute(ours, now, reserve_w=watts)
            want = reference.redistribute(theirs, now, reserve_w=watts)
        else:
            got = shipping.reclaim(ours, now, watts)
            want = reference.reclaim(theirs, now, watts)
        assert got == want
        assert _state(ours) == _state(theirs)
        assert shipping.stats == reference.stats
        assert shipping.log.events == reference.log.events


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    specs=st.lists(devices, min_size=1, max_size=16),
    spare_w=st.floats(-2.0, 12.0),
    script=st.lists(calls, min_size=1, max_size=6),
)
def test_random_clusters(specs, spare_w, script):
    _assert_parity(TABLE, specs, spare_w, script)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    point=st.integers(0, len(TABLE) - 2),
    activity=st.sampled_from(ACTIVITIES),
    fleet=st.lists(
        st.tuples(
            st.integers(1, 16),  # batch
            st.sampled_from((0, 50_000)),  # elapsed
            st.sampled_from((20_000, 100_000, 400_000)),  # remaining
        ),
        min_size=2,
        max_size=8,
    ),
    spare_w=st.floats(0.0, 6.0),
    script=st.lists(calls, min_size=1, max_size=3),
)
def test_devices_sharing_a_point(point, activity, fleet, spare_w, script):
    # One point and one activity for every device: batches of different
    # sizes look up ladders that differ only in batch, equal devices tie
    # exactly (the first one wins), and the switch delay in the new
    # total decides between near-equal gains.
    specs = [
        {
            "healthy": True,
            "busy": True,
            "point": point,
            "batch": batch,
            "activity": activity,
            "elapsed_ns": elapsed_ns,
            "remaining_ns": remaining_ns,
            "slack_ns": 100_000,
            "cap": None,
        }
        for batch, elapsed_ns, remaining_ns in fleet
    ]
    _assert_parity(TABLE, specs, spare_w, [("redistribute", 0, 0.0), *script])
