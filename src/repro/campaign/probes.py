"""Worker-side probes: deterministic evidence beyond the run's metrics.

The back-test itself never touches the matching engine or the wire
protocol (it replays pre-generated arrival/deadline arrays), so two of
the campaign invariants need their own seeded exercises, run in the same
worker process and folded into the run's evidence:

- :func:`book_integrity_probe` generates a market session twice and
  fingerprints every depth snapshot of each pass with
  :meth:`~repro.lob.snapshot.DepthSnapshot.checksum`, flagging
  pass-to-pass checksum divergence or a structurally invalid ladder
  (crossed book, non-positive volume, unsorted side, non-monotone
  sequence) as a book integrity violation.
- :func:`feed_sequence_probe` replays a numbered datagram stream through
  the scenario's feed perturbations (loss / duplication / reordering)
  into a :class:`~repro.pipeline.feed_handler.SequenceTracker` and
  checks the resync contract: accepted sequence numbers stay strictly
  monotone, and the tracker's loss/duplicate accounting matches the
  perturbation schedule exactly.

Both probes are pure functions of their arguments (fresh ``numpy``
generators, no wall clock), so probe evidence is byte-reproducible and
safe to embed in the campaign report.
"""

from __future__ import annotations

import numpy as np

from repro.lob.snapshot import DepthSnapshot
from repro.market.generator import generate_session
from repro.market.replay import TickTape
from repro.pipeline.feed_handler import SEQ_DUPLICATE, SequenceTracker

__all__ = [
    "book_integrity_probe",
    "feed_sequence_probe",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

# Keep reports readable when a probe goes badly wrong.
_MAX_VIOLATIONS = 20


def _fold(digest: int, value: int) -> int:
    for _ in range(8):
        digest = ((digest ^ (value & 0xFF)) * _FNV_PRIME) & _U64
        value >>= 8
    return digest


def _snapshot_violations(snapshot: DepthSnapshot, last_sequence: int) -> list[str]:
    """Structural checks on one depth snapshot."""
    out: list[str] = []
    bid_prices = [price for price, _ in snapshot.bids]
    ask_prices = [price for price, _ in snapshot.asks]
    if any(b <= a for b, a in zip(bid_prices, bid_prices[1:])):
        out.append(f"seq {snapshot.sequence}: bid ladder not strictly descending")
    if any(a >= b for a, b in zip(ask_prices, ask_prices[1:])):
        out.append(f"seq {snapshot.sequence}: ask ladder not strictly ascending")
    if any(volume <= 0 for _, volume in snapshot.bids + snapshot.asks):
        out.append(f"seq {snapshot.sequence}: non-positive resting volume")
    if snapshot.bids and snapshot.asks and snapshot.bids[0][0] >= snapshot.asks[0][0]:
        out.append(
            f"seq {snapshot.sequence}: crossed book "
            f"(bid {snapshot.bids[0][0]} >= ask {snapshot.asks[0][0]})"
        )
    if snapshot.sequence <= last_sequence:
        out.append(
            f"sequence not strictly increasing "
            f"({last_sequence} -> {snapshot.sequence})"
        )
    return out


def _tape_digest(tape: TickTape) -> tuple[int, int, list[str]]:
    """(folded checksum, tick count, structural violations) of one tape."""
    digest = _FNV_OFFSET
    violations: list[str] = []
    last_sequence = 0
    for tick in tape:
        snapshot = tick.snapshot
        digest = _fold(digest, snapshot.checksum())
        if len(violations) < _MAX_VIOLATIONS:
            violations.extend(_snapshot_violations(snapshot, last_sequence))
        last_sequence = snapshot.sequence
    return digest, len(tape), violations[:_MAX_VIOLATIONS]


def book_integrity_probe(seed: int, duration_s: float = 0.4) -> dict:
    """Two independent generator passes must agree checksum-for-checksum."""
    digest_a, ticks_a, violations = _tape_digest(
        generate_session(duration_s=duration_s, seed=seed)
    )
    digest_b, ticks_b, _ = _tape_digest(
        generate_session(duration_s=duration_s, seed=seed)
    )
    return {
        "checksum": f"{digest_a:016x}",
        "checksum_repeat": f"{digest_b:016x}",
        "ticks": ticks_a,
        "ticks_repeat": ticks_b,
        "violations": violations,
    }


def feed_sequence_probe(
    seed: int,
    n_packets: int = 400,
    loss_prob: float = 0.0,
    duplicate_prob: float = 0.0,
    reorder_prob: float = 0.0,
) -> dict:
    """Perturb a numbered stream and audit the tracker's resync contract.

    The perturbation bands are disjoint (one fault per packet, the
    :func:`~repro.faults.plan.seeded_plan` convention): a *lost* packet
    never arrives, a *duplicated* packet arrives twice back to back, a
    *reordered* packet swaps with its successor.  Exact accounting
    follows: ``lost_packets`` must equal losses plus reorders (the
    early-arriving successor opens a one-packet gap that the late packet
    then fills as a duplicate), and ``duplicates`` must equal
    duplications plus reorders.
    """
    rng = np.random.default_rng(seed)
    draws = rng.random(n_packets)
    loss_hi = min(loss_prob, 1.0)
    dup_hi = min(loss_hi + duplicate_prob, 1.0)
    reorder_hi = min(dup_hi + reorder_prob, 1.0)

    # Sequence 0 primes the tracker and a trailing heartbeat closes the
    # stream, so leading and trailing losses still open observable gaps
    # and the accounting below is exact rather than modulo edge packets.
    stream: list[int] = [0]
    planned_loss = planned_dup = planned_reorder = 0
    sequence = 0
    skip_next = False
    for index in range(n_packets):
        sequence += 1
        if skip_next:
            skip_next = False
            continue
        draw = draws[index]
        if draw < loss_hi:
            planned_loss += 1
        elif draw < dup_hi:
            planned_dup += 1
            stream.extend((sequence, sequence))
        elif draw < reorder_hi and index + 1 < n_packets:
            planned_reorder += 1
            stream.extend((sequence + 1, sequence))
            skip_next = True
        else:
            stream.append(sequence)
    stream.append(n_packets + 1)

    tracker = SequenceTracker()
    accepted: list[int] = []
    monotone = True
    duplicates_ordered = True
    for number in stream:
        verdict = tracker.observe(number)
        if verdict == SEQ_DUPLICATE:
            # A duplicate must be at or below the highest accepted number
            # (it was already applied or superseded), never ahead of it.
            if not accepted or number > accepted[-1]:
                duplicates_ordered = False
            continue
        # first / ok / gap all advance the stream (a gap resyncs forward).
        if accepted and number <= accepted[-1]:
            monotone = False
        accepted.append(number)

    return {
        "packets_sent": len(stream),
        "accepted": len(accepted),
        "accepted_monotone": monotone,
        "duplicates_ordered": duplicates_ordered,
        "gaps": tracker.gaps,
        "lost_packets": tracker.lost_packets,
        "duplicates": tracker.duplicates,
        "planned": {
            "loss": planned_loss,
            "duplicate": planned_dup,
            "reorder": planned_reorder,
        },
        "expected_lost": planned_loss + planned_reorder,
        "expected_duplicates": planned_dup + planned_reorder,
    }
