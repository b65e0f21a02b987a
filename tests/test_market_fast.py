"""The market generator: byte-identical, atomic, cached.

The contract under test: the batch-kernel generation loop (agents plan
plain-int ops on a :class:`~repro.lob.array_matching.ReplaySession`)
must produce **byte-identical** tick tapes to the per-op reference loop
in ``tests/oracles/market.py``, on either book engine, for any seed —
plus pinned tape digests, the RNG-stream equivalences that identity
rests on, crash atomicity at chunk granularity, metric-registry parity,
and the two-level tick-tape cache (memory + npz) that campaign probes
reuse.
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
from repro.market.tape_cache import (
    cached_session,
    clear_tape_cache,
    tape_cache_key,
)
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


@pytest.fixture(autouse=True)
def fresh_tape_cache():
    clear_tape_cache()
    yield
    clear_tape_cache()


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
# atomicity: a raising agent op leaves the book at the last commit
# ---------------------------------------------------------------------------


class _BombAgent(Agent):
    """Plans an op the kernel must reject (cancel of an unknown id)."""

    def act_fast(self, fctx, timestamp, rng):
        fctx.session.cancel(999_999_999)
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
    # The uncommitted session is discarded: the book still holds exactly
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
    for simulator in (ReferenceMarketSimulator, MarketSimulator):
        registry = MetricRegistry()
        simulator(MarketConfig(), seed=5, metrics=registry).generate(1.0)
        snapshots.append(registry.public_snapshot())
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["counters"]["lob.orders"] > 0


# ---------------------------------------------------------------------------
# tick-tape cache: hit/miss byte-equality at both levels
# ---------------------------------------------------------------------------


def test_memory_cache_returns_same_tape_object():
    first = cached_session(duration_s=0.6, seed=7)
    assert cached_session(duration_s=0.6, seed=7) is first
    assert cached_session(duration_s=0.6, seed=8) is not first


def test_disk_cache_roundtrips_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TAPE_CACHE", str(tmp_path / "tapes"))
    fresh = generate_session(duration_s=0.6, seed=7)
    stored = cached_session(duration_s=0.6, seed=7)  # miss: generate + store
    clear_tape_cache()
    loaded = cached_session(duration_s=0.6, seed=7)  # hit: npz round-trip
    assert loaded is not stored
    assert tape_sha256(tmp_path, loaded, "loaded") == tape_sha256(
        tmp_path, stored, "stored"
    ) == tape_sha256(tmp_path, fresh, "fresh")
    key = tape_cache_key(MarketConfig(), 7, 0.6, None)
    assert (tmp_path / "tapes" / f"tape-ESU6-{key}.npz").exists()


def test_corrupt_disk_entry_regenerates(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TAPE_CACHE", str(tmp_path / "tapes"))
    good = cached_session(duration_s=0.6, seed=7)
    key = tape_cache_key(MarketConfig(), 7, 0.6, None)
    path = tmp_path / "tapes" / f"tape-ESU6-{key}.npz"
    path.write_bytes(b"not an npz file")
    clear_tape_cache()
    regenerated = cached_session(duration_s=0.6, seed=7)
    assert tape_sha256(tmp_path, regenerated, "regen") == tape_sha256(
        tmp_path, good, "good"
    )


def test_cache_key_separates_parameters():
    config = MarketConfig()
    keys = {
        tape_cache_key(config, 7, 0.6, None),
        tape_cache_key(config, 8, 0.6, None),
        tape_cache_key(config, 7, 0.7, None),
        tape_cache_key(config, 7, 0.6, 100),
        tape_cache_key(MarketConfig(symbol="NQU6"), 7, 0.6, None),
    }
    assert len(keys) == 5


# ---------------------------------------------------------------------------
# campaign probe rides the cache
# ---------------------------------------------------------------------------


def test_book_integrity_probe_uses_tape_cache(monkeypatch):
    from repro.campaign.probes import book_integrity_probe

    calls = []
    original = MarketSimulator.generate

    def counting(self, duration_s, max_ticks=None):
        calls.append(duration_s)
        return original(self, duration_s, max_ticks)

    monkeypatch.setattr(MarketSimulator, "generate", counting)
    report = book_integrity_probe(seed=3, duration_s=0.4)
    assert report["checksum"] == report["checksum_repeat"]
    assert report["violations"] == []
    assert len(calls) == 2  # cold: one cached pass + one fresh pass
    report = book_integrity_probe(seed=3, duration_s=0.4)
    assert report["checksum"] == report["checksum_repeat"]
    assert len(calls) == 3  # warm: cache hit + the always-fresh pass
