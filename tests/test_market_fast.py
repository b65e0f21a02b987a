"""The market generator: byte-identical and atomic.

The contract under test: the generation loop (agents send plain-int ops
to the live book's :class:`~repro.lob.array_matching.MatchingKernel`)
must produce **byte-identical** tick tapes to the per-op reference loop
in ``tests/oracles/market.py``, on either book engine, for any seed —
plus pinned tape digests, the RNG-stream equivalences that identity
rests on, per-op atomicity (a raising agent op leaves the book as the
previous op left it), metric-registry parity, and the campaign's
book-integrity probe generating its tape twice.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import numpy as np
import pytest

from repro.errors import OrderBookError
from repro.lob.array_matching import ArrayMatchingEngine
from repro.market.agents import Agent, AgentMix, default_mix
from repro.market.generator import MarketConfig, MarketSimulator, generate_session
from repro.metrics import MetricRegistry
from tests.oracles.market import ReferenceMarketSimulator, reference_session, sample
from tests.oracles.matching import MatchingEngine

PARITY_SEEDS = (3, 11, 27)
DURATION_S = 0.8
# (ticks, sha256) of generate_session(DURATION_S, seed): the shipping
# tape bytes, anchored independently of the oracle.
PINNED_TAPES = {
    3: (117, "cfed4b0e9ee325d8e9280f965287f969c95f218560cf66de99c2916d5128fe5e"),
    11: (238, "324d5206af7e80a2e30f034448c6e206b524a0222930ccf127c749744382cb6d"),
    27: (192, "e88de215ad0f497ee1da73b7d0d0e16300029a359e44b153a2c34581410993c0"),
}


def tape_sha256(tmp_path, tape, label: str) -> str:
    path = tmp_path / f"{label}.ndjson"
    tape.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# tape byte-identity: shipping generator vs the reference loop on either engine
# ---------------------------------------------------------------------------

# The generators under comparison: the shipping path, then the reference
# loop on the array engine and on the object-per-order engine.
GENERATORS = {
    "shipping": generate_session,
    "reference-array": reference_session,
    "reference-book": lambda **kw: reference_session(engine=MatchingEngine, **kw),
}


@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_tape_sha256_parity_matrix(tmp_path, seed):
    digests = set()
    for label, generate in GENERATORS.items():
        tape = generate(duration_s=DURATION_S, seed=seed)
        assert len(tape) == PINNED_TAPES[seed][0]
        digests.add(tape_sha256(tmp_path, tape, f"{seed}-{label}"))
    assert digests == {PINNED_TAPES[seed][1]}, "tape bytes moved"


def test_max_ticks_early_return_parity(tmp_path):
    digests = set()
    for simulator in (MarketSimulator, ReferenceMarketSimulator):
        tape = simulator(MarketConfig(), seed=3).generate(DURATION_S, max_ticks=25)
        assert len(tape) == 25
        digests.add(tape_sha256(tmp_path, tape, f"cap-{simulator.__name__}"))
    assert len(digests) == 1


def test_chunked_iteration_matches_unchunked(tmp_path, monkeypatch):
    """A tiny arrival chunk must not perturb either path's tape bytes."""
    paths = {"shipping": generate_session, "reference": reference_session}
    baseline = {}
    for label, generate in paths.items():
        tape = generate(duration_s=DURATION_S, seed=11)
        baseline[label] = tape_sha256(tmp_path, tape, f"chunk-default-{label}")
    monkeypatch.setattr("repro.market.generator._ARRIVAL_CHUNK", 7)
    for label, generate in paths.items():
        tape = generate(duration_s=DURATION_S, seed=11)
        assert tape_sha256(tmp_path, tape, f"chunk-7-{label}") == baseline[label]


# ---------------------------------------------------------------------------
# the RNG-stream equivalences the fast path's draw order rests on
# ---------------------------------------------------------------------------


def test_sample_fast_matches_sample_and_stream_state():
    """CDF-bisect agent sampling consumes exactly rng.choice's one draw."""
    mix = default_mix()
    a, b = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(5_000):
        assert sample(mix, a) is mix.sample_fast(b)
    # Identical downstream draws prove identical generator state.
    assert a.integers(0, 1 << 62) == b.integers(0, 1 << 62)


def test_random_matches_uniform_and_stream_state():
    """rng.random() is a draw-for-draw substitute for rng.uniform()."""
    a, b = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(5_000):
        assert a.uniform() == b.random()
    assert a.integers(0, 1 << 62) == b.integers(0, 1 << 62)


def test_mix_cdf_inverts_choice_probabilities():
    mix = default_mix()
    probs = np.asarray(mix.weights, dtype=float)
    probs /= probs.sum()
    rng = np.random.default_rng(29)
    for _ in range(2_000):
        draw = rng.random()
        assert mix.agents[bisect_right(mix._cdf, draw)] is mix.agents[
            int(np.searchsorted(probs.cumsum() / probs.sum(), draw, side="right"))
        ]


# ---------------------------------------------------------------------------
# atomicity: a raising agent op leaves the book as the previous op left it
# ---------------------------------------------------------------------------


class _BombAgent(Agent):
    """Sends an op the kernel must refuse (cancel of an unknown id)."""

    def act_fast(self, fctx, timestamp, rng):
        fctx.kernel.cancel(999_999_999)
        return True


def test_rejected_agent_op_is_atomic(monkeypatch):
    engine = ArrayMatchingEngine()
    monkeypatch.setattr(
        "repro.market.generator.ArrayMatchingEngine", lambda metrics=None: engine
    )
    config = MarketConfig()
    sim = MarketSimulator(
        config, mix=AgentMix(agents=(_BombAgent(),), weights=(1.0,)), seed=3
    )
    with pytest.raises(OrderBookError):
        sim.generate(1.0)
    # The cancel raises before it writes: the book still holds exactly
    # the per-op seeded ladder, and the sequence stops at the seed ops.
    book = engine.book(config.symbol)
    assert book.bids.top(config.seed_levels) == [
        (config.initial_price - lvl, config.seed_volume)
        for lvl in range(1, config.seed_levels + 1)
    ]
    assert book.asks.top(config.seed_levels) == [
        (config.initial_price + lvl, config.seed_volume)
        for lvl in range(1, config.seed_levels + 1)
    ]
    assert book.slab.in_use == 2 * config.seed_levels
    assert engine._sequence == 2 * config.seed_levels


# ---------------------------------------------------------------------------
# metric-registry parity between the shipping and reference loops
# ---------------------------------------------------------------------------


def test_metric_registry_parity():
    snapshots = []
    simulators = (
        ReferenceMarketSimulator,
        lambda *a, **kw: ReferenceMarketSimulator(*a, engine=MatchingEngine, **kw),
        MarketSimulator,
    )
    for simulator in simulators:
        registry = MetricRegistry()
        simulator(MarketConfig(), seed=5, metrics=registry).generate(1.0)
        snapshots.append(registry.public_snapshot())
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert snapshots[0]["counters"]["lob.orders"] > 0


# ---------------------------------------------------------------------------
# campaign probe: two independent generations
# ---------------------------------------------------------------------------


def test_book_integrity_probe_generates_twice(monkeypatch):
    from repro.campaign.probes import book_integrity_probe

    calls = []
    original = MarketSimulator.generate

    def counting(self, duration_s, max_ticks=None):
        calls.append(duration_s)
        return original(self, duration_s, max_ticks)

    monkeypatch.setattr(MarketSimulator, "generate", counting)
    for expected_calls in (2, 4):
        report = book_integrity_probe(seed=3, duration_s=0.4)
        assert len(calls) == expected_calls
        assert report["checksum"] == report["checksum_repeat"]
        assert report["ticks"] == report["ticks_repeat"] > 0
        assert report["violations"] == []
