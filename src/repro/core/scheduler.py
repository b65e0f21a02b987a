"""Workload scheduling — Algorithm 1 of the paper.

Whenever the scheduler can issue a new batch, it sweeps every
(DVFS option × batch size) pair, estimates the DNN-pipeline tick-to-trade
``t_total = t_infer[dvfs][bs] + t_trans[bs]``, keeps the pairs that meet
both the available time and the power budget, and commits the candidate
with the highest PPW.  If no pair is feasible the oldest input tensor is
removed from the offload engine (deferred to the conventional pipeline).

The sweep ranks the candidates of a precomputed
:class:`~repro.core.sweepgrid.SweepGrid` once per queue depth and picks
the first feasible one.  The line-for-line Algorithm 1 transcription it
replaced is kept as the golden model in ``tests/oracles/scheduler.py``;
the sweep-parity tests hold the two decision-for-decision identical —
same candidate, same tie-breaking, same decision-log counts — over
randomized profiles, deadlines and budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.accelerator.power import DVFSTable, OperatingPoint
from repro.baselines.profiles import LightTraderProfile
from repro.core.ppw import ppw
from repro.core.sweepgrid import SweepGrid
from repro.errors import SchedulingError
from repro.hotpath import hot_path

if TYPE_CHECKING:
    from repro.telemetry.decisions import DecisionLog

# Decision-memo size cap: steady-state traffic produces a handful of
# distinct (depth, floor, cap, budget) signatures, so hitting the cap
# means the keys are churning (e.g. continuously-varying budgets) and
# caching is not paying for itself — flush and start over.
MEMO_MAX_ENTRIES = 4096


# One queue depth's candidates, best first: (t_total_ns, col, power_w,
# row, score).
_Ranked = list[tuple[int, int, float, int, float]]
# Filtered sweep tables: (points, t_total, power, score, ranked), where
# ranked maps a queue depth n to _rank(tables, n).
_Tables = tuple[
    tuple[OperatingPoint, ...], np.ndarray, np.ndarray, np.ndarray, dict[int, _Ranked]
]


def _rank(tables: _Tables, n_batches: int) -> _Ranked:
    """The candidates of the first ``n_batches`` columns, best first.

    The order is (-score, row, col): a stable sort of the row-major
    index by -score.  Its first feasible entry is the one a masked
    argmax picks (the first occurrence of the feasible maximum), which
    is the reference loop's strict-improvement tie-break over (slowest
    point first, smallest batch first).  A non-finite score would make
    the two disagree, so it is refused.
    """
    __, t_grid, p_grid, score_grid, __ = tables
    score = score_grid[:, :n_batches]
    if not np.isfinite(score).all():
        raise SchedulingError("non-finite Algorithm-1 score in the sweep grid")
    order = np.argsort(-score, axis=None, kind="stable")
    rows, cols = np.divmod(order, n_batches)
    return list(
        zip(
            t_grid[:, :n_batches].ravel()[order].tolist(),
            cols.tolist(),
            p_grid[:, :n_batches].ravel()[order].tolist(),
            rows.tolist(),
            score.ravel()[order].tolist(),
        )
    )


@dataclass(frozen=True)
class ScheduleDecision:
    """One committed offloading choice."""

    point: OperatingPoint
    batch_size: int
    t_total_ns: int
    power_w: float
    ppw: float


@dataclass(frozen=True)
class WorkloadScheduler:
    """Algorithm 1: pick (dvfs, batch) maximising PPW under constraints.

    Attributes:
        profile: The LightTrader latency/power oracle.
        table: DVFS options available to dynamic scheduling.
        max_batch: Upper bound on the batch size options.
    """

    profile: LightTraderProfile
    table: DVFSTable
    max_batch: int = 16
    # Candidate-ranking metric: 'ppw' (the paper's Algorithm 1),
    # 'latency' (minimise t_total) or 'throughput' (maximise batch/t_total).
    # The alternatives exist for the ablation study.
    metric: str = "ppw"
    # Telemetry decision log; when None every sweep runs the uninstrumented
    # fast path (no per-candidate counting).
    log: "DecisionLog | None" = field(default=None, compare=False)
    # Per-(model, floor, cap) filtered sweep tables plus their candidate
    # rankings by queue depth.
    _grids: "dict[tuple[str, float, float | None], _Tables]" = field(
        default_factory=dict, compare=False, repr=False
    )
    # Per-model fastest batch-1 t_total_ns, for deadline_feasible().
    _fastest_ns: "dict[str, int]" = field(
        default_factory=dict, compare=False, repr=False
    )
    # Decision memo: (model, depth, floor, cap, budget) → (best, stats,
    # floor_relaxed), valid only in the deadline-slack regime (see
    # decide_memo).  Flushed by invalidate_memo() on fault/budget events.
    _memo: "dict[tuple[str, int, float, float | None, float], tuple[ScheduleDecision | None, dict[str, int] | None, bool]]" = field(
        default_factory=dict, compare=False, repr=False
    )
    # (model, cap) → memo validity horizon in ns (-1 = memo unavailable).
    _horizons: "dict[tuple[str, float | None], int]" = field(
        default_factory=dict, compare=False, repr=False
    )
    # (model, point) → static batch-1 decision (pure, never invalidated).
    _static: "dict[tuple[str, OperatingPoint], ScheduleDecision]" = field(
        default_factory=dict, compare=False, repr=False
    )
    # Observability across the scheduler's lifetime: memo hit/miss
    # counts, memo invalidations, and full Algorithm-1 sweeps executed.
    # Folded into the run's MetricRegistry under the ``impl.`` namespace
    # (the fast and reference pumps legitimately differ here).
    memo_stats: "dict[str, int]" = field(
        default_factory=lambda: {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "sweeps": 0,
        },
        compare=False,
        repr=False,
    )

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise SchedulingError("max_batch must be positive")
        if self.metric not in ("ppw", "latency", "throughput"):
            raise SchedulingError(f"unknown scheduling metric {self.metric!r}")

    def decide(
        self,
        model: str,
        now: int,
        deadlines: "list[int]",
        power_budget_w: float,
        floor_freq_hz: float = 0.0,
        cap_freq_hz: float | None = None,
    ) -> ScheduleDecision | None:
        """Run one Algorithm-1 sweep.

        Args:
            model: Model being served.
            now: Current time (ns); issue happens immediately on commit.
            deadlines: Effective deadlines of the pending queries in FIFO
                order (up to ``max_batch`` entries); a batch of size b is
                only useful if it completes by ``min(deadlines[:b])``.
            power_budget_w: Power available to this accelerator
                (static share without DVFS scheduling, rail headroom
                with it).

            floor_freq_hz: Prefer operating points at or above this
                frequency (the conservative static point): running below
                it saves energy the desk has already budgeted for, while
                stretching service just before a burst.  Slower points
                are still considered when nothing at or above the floor
                is feasible (e.g. the power share cannot carry them).

            cap_freq_hz: Hard upper bound on the operating-point
                frequency (a thermally throttled device); unlike the
                floor it is never relaxed.

        Returns:
            The best feasible decision, or None (caller then removes the
            oldest input tensor, Algorithm 1's fallback).
        """
        if not deadlines:
            raise SchedulingError("decide() called with no pending queries")
        best, stats, floor_relaxed = self._decide_core(
            model, now, deadlines, power_budget_w, floor_freq_hz, cap_freq_hz
        )
        if self.log is not None and stats is not None:
            self._log_sweep(now, best, stats, floor_relaxed)
        return best

    def _decide_core(
        self,
        model: str,
        now: int,
        deadlines: "list[int]",
        power_budget_w: float,
        floor_freq_hz: float,
        cap_freq_hz: "float | None",
    ) -> "tuple[ScheduleDecision | None, dict[str, int] | None, bool]":
        """The decide() body minus logging: (best, stats, floor_relaxed)."""
        self.memo_stats["sweeps"] += 1
        # t_avail per batch size: the tightest deadline inside the batch.
        tightest: list[int] = []
        running = deadlines[0]
        for deadline in deadlines[: self.max_batch]:
            running = min(running, deadline)
            tightest.append(running)
        stats = (
            {"considered": 0, "feasible": 0, "deadline": 0, "power": 0}
            if self.log is not None
            else None
        )
        best = self._sweep(
            model, now, tightest, power_budget_w, floor_freq_hz, cap_freq_hz, stats
        )
        floor_relaxed = False
        if best is None and floor_freq_hz > 0.0:
            floor_relaxed = True
            best = self._sweep(
                model, now, tightest, power_budget_w, 0.0, cap_freq_hz, stats
            )
        return best, stats, floor_relaxed

    def _log_sweep(
        self,
        now: int,
        best: "ScheduleDecision | None",
        stats: "dict[str, int]",
        floor_relaxed: bool,
    ) -> None:
        self.log.record_sweep(
            now,
            considered=stats["considered"],
            feasible=stats["feasible"],
            rejected_deadline=stats["deadline"],
            rejected_power=stats["power"],
            chosen=best,
            floor_relaxed=floor_relaxed,
        )

    @hot_path
    def decide_memo(
        self,
        model: str,
        now: int,
        deadlines: "list[int]",
        power_budget_w: float,
        floor_freq_hz: float = 0.0,
        cap_freq_hz: float | None = None,
    ) -> ScheduleDecision | None:
        """Memoized :meth:`decide` — bit-identical results and decision-log
        records, skipping even the vectorized sweep on steady-state hits.

        Validity argument: every deadline check in the sweep is
        ``now + t_total <= tightest[b]``.  When the *tightest* considered
        deadline is at least ``max(t_total over the floor-relaxed,
        cap-filtered grid)`` away, every such check passes regardless of
        ``now``, so the sweep outcome (and its rejection counts) is a pure
        function of (model, queue depth, floor, cap, budget) — the memo
        key.  Outside that slack regime this falls back to a full
        :meth:`decide`.  Keys carry the *exact*
        float budget: a reclaim-perturbed budget simply misses.
        """
        if not deadlines:
            raise SchedulingError("decide() called with no pending queries")
        horizon = self._memo_horizon(model, cap_freq_hz)
        if horizon >= 0:
            depth = min(len(deadlines), self.max_batch)
            if now + horizon <= min(deadlines[:depth]):
                key = (model, depth, floor_freq_hz, cap_freq_hz, power_budget_w)
                cached = self._memo.get(key)
                need_stats = self.log is not None
                if cached is not None and (not need_stats or cached[1] is not None):
                    best, stats, floor_relaxed = cached
                    self.memo_stats["hits"] += 1
                    if need_stats:
                        self._log_sweep(now, best, stats, floor_relaxed)
                    return best
                self.memo_stats["misses"] += 1
                best, stats, floor_relaxed = self._decide_core(
                    model, now, deadlines, power_budget_w, floor_freq_hz, cap_freq_hz
                )
                if need_stats and stats is not None:
                    self._log_sweep(now, best, stats, floor_relaxed)
                if len(self._memo) >= MEMO_MAX_ENTRIES:
                    self._memo.clear()
                self._memo[key] = (best, stats, floor_relaxed)
                return best
        return self.decide(
            model, now, deadlines, power_budget_w, floor_freq_hz, cap_freq_hz
        )

    def invalidate_memo(self) -> None:
        """Flush the decision memo (fault / recovery / budget boundaries).

        Memo keys are pure-function signatures, so entries never go
        stale in the mathematical sense; flushing at cluster-state
        discontinuities keeps the table bounded to the signatures of the
        *current* regime and makes the invalidation contract explicit.
        """
        self.memo_stats["invalidations"] += 1
        self._memo.clear()

    def _memo_horizon(self, model: str, cap_freq_hz: "float | None") -> int:
        """Memo validity horizon (ns) for (model, cap), or -1 when the
        memo cannot be used (empty cap filter)."""
        key = (model, cap_freq_hz)
        horizon = self._horizons.get(key)
        if horizon is None:
            # Floor 0.0: the horizon must cover the floor-relaxed retry
            # sweep, which considers every point at or under the cap.
            t_total = self._tables(model, 0.0, cap_freq_hz)[1]
            horizon = int(t_total.max()) if t_total.size else -1
            self._horizons[key] = horizon
        return horizon

    def _sweep(
        self,
        model: str,
        now: int,
        tightest: "list[int]",
        power_budget_w: float,
        floor_freq_hz: float,
        cap_freq_hz: "float | None",
        stats: "dict[str, int] | None" = None,
    ) -> ScheduleDecision | None:
        points, t_grid, p_grid, __, ranked = tables = self._tables(
            model, floor_freq_hz, cap_freq_hz
        )
        n_batches = len(tightest)
        if stats is not None:
            # Rejection counts only; the pick below does not read them.
            t_total = t_grid[:, :n_batches]
            deadline_ok = (now + t_total) <= np.asarray(tightest, dtype=np.int64)
            power_ok = p_grid[:, :n_batches] <= power_budget_w
            stats["considered"] += t_total.size
            stats["deadline"] += int((~deadline_ok).sum())
            # The reference loop checks power only after the deadline passes.
            stats["power"] += int((deadline_ok & ~power_ok).sum())
            stats["feasible"] += int((deadline_ok & power_ok).sum())
        candidates = ranked.get(n_batches)
        if candidates is None:
            candidates = ranked[n_batches] = _rank(tables, n_batches)
        for t_total_ns, col, power_w, row, score in candidates:
            if now + t_total_ns <= tightest[col] and power_w <= power_budget_w:
                return ScheduleDecision(
                    point=points[row],
                    batch_size=col + 1,
                    t_total_ns=t_total_ns,
                    power_w=power_w,
                    ppw=score,
                )
        return None

    def _tables(
        self, model: str, floor_freq_hz: float, cap_freq_hz: "float | None" = None
    ) -> _Tables:
        """Floor/cap-filtered (points, t_total, power, score, ranked) tables.

        Scores are sweep-invariant (pure functions of the grid), so they
        are materialised here once per (model, floor, cap) rather than
        per issue; ``ranked`` fills in per queue depth on first use.
        """
        key = (model, floor_freq_hz, cap_freq_hz)
        tables = self._grids.get(key)
        if tables is None:
            grid: SweepGrid = self.profile.sweep_grid(model, self.table, self.max_batch)
            keep = np.ones(len(grid.points), dtype=bool)
            if floor_freq_hz > 0.0:
                keep &= grid.freq_hz >= floor_freq_hz
            if cap_freq_hz is not None:
                keep &= grid.freq_hz <= cap_freq_hz + 1e-3
            if keep.all():
                points = grid.points
                t_total = grid.t_total_ns
                power = grid.power_w
            else:
                rows = np.flatnonzero(keep)
                points = tuple(grid.points[i] for i in rows)
                t_total = grid.t_total_ns[rows]
                power = grid.power_w[rows]
            # Scores reproduce the reference loop's scalar float operations
            # exactly (same operands, same IEEE op order), just elementwise.
            batches = np.arange(1, self.max_batch + 1, dtype=np.float64)
            if self.metric == "ppw":
                score = batches / ((t_total / 1e9) * power)
            elif self.metric == "latency":
                score = -t_total.astype(np.float64)
            else:  # throughput
                score = batches / (t_total / 1e9)
            tables = (points, t_total, power, score, {})
            self._grids[key] = tables
        return tables

    def deadline_feasible(self, model: str, now: int, deadline: int) -> bool:
        """True if ANY operating point could serve a batch-1 inference by
        ``deadline`` (ignoring power).

        Distinguishes Algorithm 1's two "no candidate" cases: a hopeless
        deadline (drop the tensor, its opportunity is gone) versus a
        transient power shortage (keep it queued; an accelerator frees
        both capacity and power shortly).

        Boundary convention (pinned repo-wide): a completion landing
        exactly at the deadline is in time, so feasibility here is
        ``now + fastest_ns <= deadline``; conversely a query whose
        deadline equals ``now`` is already stale (see
        ``PendingIndexStore.drop_stale``).
        """
        fastest_ns = self._fastest_ns.get(model)
        if fastest_ns is None:
            fastest_ns = self.profile.t_total_ns(model, self.table.max_point, 1)
            self._fastest_ns[model] = fastest_ns
        return now + fastest_ns <= deadline

    def static_decision(
        self,
        model: str,
        point: OperatingPoint,
        now: int,
        oldest_deadline: int,
    ) -> ScheduleDecision:
        """The no-scheduling baseline: batch 1 at the fixed static point.

        The baseline performs no feasibility analysis — it issues even
        queries that are doomed to miss (that throughput waste is exactly
        what Algorithm 1 removes).  The decision is a pure function of
        (model, point) — ``now`` and ``oldest_deadline`` are part of the
        call signature only for parallelism with :meth:`decide` — so it
        is cached per (model, point).
        """
        decision = self._static.get((model, point))
        if decision is None:
            t_total = self.profile.t_total_ns(model, point, 1)
            power = self.profile.power_w(model, point, 1)
            decision = ScheduleDecision(
                point=point,
                batch_size=1,
                t_total_ns=t_total,
                power_w=power,
                ppw=ppw(1, t_total, power),
            )
            self._static[(model, point)] = decision
        return decision
