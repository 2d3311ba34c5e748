"""Mini-batch SGD and its communication-avoiding s-step variant.

Both solvers draw from the same deterministic batch stream, so equal
seeds walk the same logical iteration sequence, and both run one round
loop.  Plain SGD is its s = 1 case without a Gram; the s-step variant
groups s iterations per round.  Each round:

  1. draws s batches;
  2. each rank forms its payload;
  3. one collective combines the payloads;
  4. the scalar recurrence gives every batch's weights; with r_j the
     scores of batch j against the round's starting point, G[j, i] the
     inner products between batch j and batch i rows, and
     w_i = (eta0/m) * v_i:  v_j = sig(r_j + sum_{i<j} G[j, i] w_i);
  5. the update x += a_tilde^T I_j^T w_j, split where a trace point
     falls inside the round.

The payload is set by the entry point that ran:

  SGD, column: the b scores, partial over each rank's columns.
  s-step, column: the s*b scores plus an s*b square Gram buffer
    (s^2 b^2 + s b words), even at s = 1.
  SGD, row: nothing; ranks score their own b/p rows, and the length-n
    gradient allreduce is the round's only collective.
  s-step, row: one allgather of the first s-1 batches' row values (only
    those appear on the Gram's column side) plus all s*b scores, then
    the gradient allreduce.

Column ranks work on their own column slices of the matrix and update
their part of x with no further communication; row ranks accumulate
gradients over their own rows.  Collectives go through
``VirtualCluster.combine``, which at p = 1 only counts them.  The
recurrence reproduces plain SGD's iterates in exact arithmetic; in
floating point the trajectories agree to ~1e-10 relative over hundreds
of epochs, and at s = 1 every step mirrors plain SGD operation for
operation, so the runs coincide bitwise.

Counter conventions (shared with the closed-form cost module): one flop
per sparse multiply-add and per dense solution-axpy element; scalar
nonlinearity evaluations land in ``sig_evals``, one per distinct scalar
per logical iteration regardless of how many ranks replicate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter as _pc
from typing import Sequence

import numpy as np

from .cluster import BLOCK_COLUMN, BLOCK_ROW, CostCounters, VirtualCluster
from .model import accuracy, loss, sig
from .sampling import BatchStream, RowBlockSelector
from .sparse import (
    LabeledDataset,
    add_rows_transpose,
    batch_scores,
    gather_rows,
    gram_lower_blocks,
    sampled_matvec,
    sampled_matvec_transpose,
)

__all__ = [
    "ConfigError",
    "SolverConfig",
    "TraceRecord",
    "SolverRun",
    "PhaseTimer",
    "iterations_per_epoch",
    "epoch_schedule",
    "run_sgd",
    "run_casgd",
    "run_reference",
    "relative_solution_error",
]

# Batch vectors at or below this length go through scalar exp (numpy
# dispatch overhead dominates tiny arrays in the per-iteration loop).
_SCALAR_SIG_MAX = 8


class ConfigError(ValueError):
    """Solver configuration violates an invariant."""


@dataclass
class SolverConfig:
    """Settings for one solver run; exactly one of epochs/total_iterations is set."""

    eta0: float
    b: int
    s: int = 1
    epochs: int | None = None
    total_iterations: int | None = None
    layout: str = BLOCK_COLUMN
    p: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eta0) and self.eta0 >= 0):
            raise ConfigError(f"eta0 must be finite and non-negative, got {self.eta0!r}")
        if self.b < 1:
            raise ConfigError("batch size must be at least 1")
        if self.s < 1:
            raise ConfigError("s must be at least 1")
        if (self.epochs is None) == (self.total_iterations is None):
            raise ConfigError("set exactly one of epochs or total_iterations")
        if self.epochs is not None and self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.total_iterations is not None and self.total_iterations < 0:
            raise ConfigError("total_iterations must be non-negative")
        if self.layout not in (BLOCK_COLUMN, BLOCK_ROW):
            raise ConfigError(f"unknown layout {self.layout!r}")
        if self.p < 1:
            raise ConfigError("p must be at least 1")
        if self.layout == BLOCK_ROW and self.b % self.p:
            raise ConfigError(f"block_row requires p={self.p} to divide b={self.b}")


@dataclass
class TraceRecord:
    """Per-epoch observation; counter fields are cumulative."""

    epoch: int
    loss: float
    accuracy: float
    flops: int
    words: int
    messages: int
    collectives: int


@dataclass
class SolverRun:
    final_x: np.ndarray
    trace: list[TraceRecord]
    counters: CostCounters
    epoch_solutions: list[np.ndarray]


class PhaseTimer:
    """Wall-clock seconds per solver phase (bench instrumentation only)."""

    PHASES = ("sampling", "score_matvec", "gram", "sig", "gradient", "update", "collectives")

    def __init__(self):
        self.totals = dict.fromkeys(self.PHASES, 0.0)

    def lap(self, phase: str, since: float) -> float:
        """Charge the time from ``since`` to now to ``phase``; returns now."""
        now = _pc()
        self.totals[phase] += now - since
        return now


def iterations_per_epoch(m: int, b: int) -> int:
    return -(-m // b)


def epoch_schedule(
    m: int, b: int, total_iterations: int, s: int = 1, align_to_rounds: bool = False
) -> list[tuple[int, int]]:
    """(epoch, iteration) trace points: every ceil(m/b) iterations.

    With ``align_to_rounds`` each point is rounded up to the next multiple
    of ``s`` (block-row s-step runs only materialize the solution at round
    boundaries).
    """
    ipe = iterations_per_epoch(m, b)
    out = []
    e = 1
    while e * ipe <= total_iterations:
        it = e * ipe
        if align_to_rounds:
            it = s * (-(-it // s))
        out.append((e, it))
        e += 1
    return out


def relative_solution_error(x_ref: np.ndarray, x_other: np.ndarray) -> float:
    """``||x_ref - x_other|| / ||x_ref||``; 0 when both are zero, inf when only x_ref is.

    NaN when either vector holds a non-finite entry.  Each norm is taken
    of its vectors divided by the power of two that brings their largest
    entry below 1 (the scaling idea of LAPACK's dnrm2), so neither the
    difference nor the squared norms can overflow.  The divisions are
    exact, so vectors in the ordinary range give the same bits as the
    unscaled formula.
    """
    x_ref = np.asarray(x_ref, dtype=np.float64)
    x_other = np.asarray(x_other, dtype=np.float64)
    if x_ref.shape != x_other.shape:
        raise ValueError("vectors must have the same length")
    if not (np.isfinite(x_ref).all() and np.isfinite(x_other).all()):
        return math.nan
    peak_ref = float(np.abs(x_ref).max(initial=0.0))
    peak = max(peak_ref, float(np.abs(x_other).max(initial=0.0)))
    if peak_ref == 0.0:
        return 0.0 if peak == 0.0 else math.inf
    e_ref, e = math.frexp(peak_ref)[1], math.frexp(peak)[1]
    base = float(np.linalg.norm(np.ldexp(x_ref, -e_ref)))
    diff = float(np.linalg.norm(np.ldexp(x_ref, -e) - np.ldexp(x_other, -e)))
    try:
        return math.ldexp(diff / base, e - e_ref)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# internals


def _sig_scalar(t) -> float:
    if t >= 0.0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


def _sig_batch(z: np.ndarray) -> np.ndarray:
    if z.shape[0] <= _SCALAR_SIG_MAX:
        out = np.empty_like(z)
        for k in range(z.shape[0]):
            out[k] = _sig_scalar(z[k])
        return out
    return sig(z)


class _ForcedBatches:
    """Stream facade over an explicit selector sequence."""

    def __init__(self, selectors: Sequence[RowBlockSelector]):
        self._ids = [[int(v) for v in sel.indices] for sel in selectors]
        self._pos = 0

    def peek_indices(self, s: int) -> list[list[int]]:
        return self._ids[self._pos : self._pos + s]

    def advance(self, s: int) -> None:
        self._pos += s


def _source(cfg, cluster, dataset, batches, need):
    if batches is not None:
        if len(batches) < need:
            raise ConfigError(f"forced batch sequence has {len(batches)} selectors, need {need}")
        for sel in batches:
            if len(sel.indices) != cfg.b:
                raise ConfigError("forced batch size differs from config batch size")
            if len(sel.indices) and int(sel.indices.max()) >= dataset.num_points:
                raise ConfigError("forced batch index out of range")
        return _ForcedBatches(batches)
    # Row ranks draw their own rows of every batch.
    ranges = cluster.layout.boundaries if cfg.layout == BLOCK_ROW else None
    return BatchStream(cfg.seed, dataset.num_points, cfg.b, mode="per_rank" if ranges else "global", rank_ranges=ranges)


def _check_cluster(cfg: SolverConfig, cluster: VirtualCluster, dataset: LabeledDataset) -> None:
    if cluster.layout.kind != cfg.layout:
        raise ConfigError(f"cluster layout {cluster.layout.kind} != config layout {cfg.layout}")
    if cluster.p != cfg.p:
        raise ConfigError(f"cluster has {cluster.p} ranks, config says {cfg.p}")
    if cluster.dataset is not dataset:
        raise ConfigError("cluster was partitioned from a different dataset")
    if cfg.b > dataset.num_points:
        raise ConfigError(f"batch size {cfg.b} exceeds m={dataset.num_points}")


class _Recorder:
    """Walks an (epoch, iteration) schedule, snapshotting state as points pass."""

    def __init__(self, dataset, counters, schedule):
        self.dataset = dataset
        self.counters = counters
        self.trace: list[TraceRecord] = []
        self.solutions: list[np.ndarray] = []
        self._sched = list(schedule)
        self._pos = 0
        self.next_iteration = self._sched[0][1] if self._sched else None

    def record(self, epoch: int, x_full: np.ndarray) -> None:
        c = self.counters
        self.trace.append(
            TraceRecord(
                epoch=epoch,
                loss=loss(self.dataset, x_full),
                accuracy=accuracy(self.dataset, x_full),
                flops=int(c.flops),
                words=int(c.words_moved),
                messages=int(c.messages),
                collectives=int(c.collectives),
            )
        )
        self.solutions.append(np.array(x_full, dtype=np.float64))

    def visit(self, iteration: int, x_full: np.ndarray) -> None:
        while self.next_iteration is not None and self.next_iteration <= iteration:
            self.record(self._sched[self._pos][0], x_full)
            self._pos += 1
            self.next_iteration = self._sched[self._pos][1] if self._pos < len(self._sched) else None


# ---------------------------------------------------------------------------
# entry points


def run_sgd(
    dataset: LabeledDataset,
    cfg: SolverConfig,
    cluster: VirtualCluster,
    *,
    batches: Sequence[RowBlockSelector] | None = None,
    timer: PhaseTimer | None = None,
    schedule: Sequence[tuple[int, int]] | None = None,
) -> SolverRun:
    """One-communication-per-iteration SGD over the cluster (requires s = 1)."""
    if cfg.s != 1:
        raise ConfigError("run_sgd requires s == 1")
    return _run_rounds(dataset, cfg, cluster, batches, timer, schedule, casgd=False)


def run_casgd(
    dataset: LabeledDataset,
    cfg: SolverConfig,
    cluster: VirtualCluster,
    *,
    batches: Sequence[RowBlockSelector] | None = None,
    timer: PhaseTimer | None = None,
    schedule: Sequence[tuple[int, int]] | None = None,
) -> SolverRun:
    """s-step SGD: one communication round per s logical iterations.

    The iteration budget is rounded up to a multiple of s (the extra
    iterations run).  Trace points default to epoch boundaries; block-row
    runs align them up to round boundaries, where the solution is first
    materialized.
    """
    return _run_rounds(dataset, cfg, cluster, batches, timer, schedule, casgd=True)


# ---------------------------------------------------------------------------
# the round loop


class _Rank:
    """One rank's data, its part of x, and what it holds during a round."""

    __slots__ = ("data", "x", "spot", "scores", "gram", "ids", "rows")

    def __init__(self, data, x, spot, scores, gram):
        self.data = data
        self.x = x
        # Where the rank's rows sit in the round's s*b rows (None: all).
        self.spot = spot
        self.scores = scores
        self.gram = gram
        # The round's row ids and their form from ``gather_rows``.
        self.ids = self.rows = None


def _run_rounds(dataset, cfg, cluster, batches, timer, schedule, casgd):
    """The round loop of both solvers; ``casgd`` selects the s-step payload."""
    _check_cluster(cfg, cluster, dataset)
    m, n = dataset.num_points, dataset.num_features
    s, b, p = cfg.s, cfg.b, cluster.p
    sb = s * b
    row = cfg.layout == BLOCK_ROW
    H = cfg.total_iterations if cfg.epochs is None else cfg.epochs * iterations_per_epoch(m, b)
    iterations = s * -(-H // s)
    if schedule is None:
        schedule = epoch_schedule(m, b, H, s=s, align_to_rounds=row)
    source = _source(cfg, cluster, dataset, batches, iterations)
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    c = cluster.counters
    c.reset()
    x = np.zeros(n)
    rec = _Recorder(dataset, c, schedule)
    rec.record(0, x)
    next_it = rec.next_iteration

    gram = casgd and s > 1
    # Column ranks send partial scores (and a partial Gram) in one buffer
    # each, and the reduced buffer lands in the first.  Row ranks keep
    # their own scores; the gathered scores and the replicated Gram take
    # the same shape.
    size = sb + sb * sb if casgd else sb
    bufs = [np.zeros(size) for _ in range(1 if row else p)]
    total = bufs[0]
    rs = total[:sb]
    G = total[sb:].reshape(sb, sb) if casgd else None
    if row:
        # Row ranks hold b/p rows of every batch, contiguous within it.
        bp = b // p
        spots = [
            slice(r * bp, (r + 1) * bp) if s == 1 else (np.arange(0, sb, b)[:, None] + np.arange(r * bp, (r + 1) * bp)).ravel()
            for r in range(p)
        ]
        # At s = 1 a rank's scores are its slice of the round's scores.
        ranks = [_Rank(dataset, x, spot, rs[spot] if s == 1 else np.empty(s * bp), None) for spot in spots]
    else:
        # Column ranks hold all of a round's rows, over their own columns.
        ranks = [
            _Rank(D, x[start:stop], None, buf[:sb], buf[sb:].reshape(sb, sb) if casgd else None)
            for D, (start, stop), buf in zip(cluster.column_slices, cluster.layout.boundaries, bufs)
        ]
    w = np.empty(sb)
    v = np.empty(sb) if row else None
    # Per iteration: batch offset, its scores, its Gram rows left of the
    # diagonal block, the weights they multiply, and its own weights;
    # views, built once, stay valid as the buffers are rewritten in place.
    recurrence = [
        (lo, rs[lo : lo + b], (G[lo, :lo] if b == 1 else G[lo : lo + b, :lo]) if lo else None, w[:lo], slice(lo, lo + b))
        for lo in range(0, sb, b)
    ]
    # A round's update flops besides its rows' nonzeros: n per iteration
    # (column) or round (row), and i*b*b recurrence flops for iteration i.
    round_flops = (n if row else n * s) + b * b * s * (s - 1) // 2
    t0 = _pc()

    for t in range(0, iterations, s):
        # 1. draw s batches
        batches_ids = source.peek_indices(s)
        source.advance(s)
        # One batch is a list of row ids already; s batches become one array.
        ids = batches_ids[0] if s == 1 else np.array(batches_ids, dtype=np.int64).reshape(sb)
        if timer:
            t0 = timer.lap("sampling", t0)

        # 2. each rank forms its payload
        score_madds = gram_madds = 0
        payloads = []
        for rk in ranks:
            rk.ids = rids = ids if rk.spot is None else ids[rk.spot]
            rk.rows = rows = gather_rows(rk.data, rids, s)
            score_madds += batch_scores(rk.data, rids, rk.x, rows=rows, out=rk.scores)[1]
            if gram and not row:
                gram_madds += gram_lower_blocks(rk.data, rids, b, out=rk.gram, rows=rows)[1]
            elif casgd and row:
                # Own rows' values of the first s-1 batches (the Gram's
                # column side), then own scores for all s batches.
                head = [A.row_slices[i][1] for i in rids[: (s - 1) * bp]]
                payloads.append(np.concatenate(head + [rk.scores]))
        if timer:
            t0 = timer.lap("gram" if gram and not row else "score_matvec", t0)

        # 3. one collective
        if not row:
            summed = cluster.combine(bufs)
            if summed is not total:
                total[:] = summed
        elif casgd:
            gathered = cluster.combine(payloads, gather=True)
            end = 0
            for rk, payload in zip(ranks, payloads):
                end += len(payload)
                rs[rk.spot] = gathered[end - s * bp : end]
        c.flops += score_madds + gram_madds
        if timer:
            t0 = timer.lap("collectives", t0)
        if gram and row:
            # Every row rank now holds the round's rows; the replicated Gram
            # is formed (and counted) once.
            c.flops += gram_lower_blocks(dataset, ids, b, out=G)[1]
            if timer:
                t0 = timer.lap("gram", t0)

        # 4. the scalar recurrence z_j = r_j + G[j, :j] w
        for lo, r_j, g_j, w_head, own in recurrence:
            if b == 1:
                zj = r_j.item(0)
                if lo:
                    zj += g_j.dot(w_head)
                vj = _sig_scalar(zj)
                w[lo] = vj * eta_scale
                if row:
                    v[lo] = vj
            else:
                zj = r_j + g_j @ w_head if lo else r_j
                if row:
                    # Each row rank evaluates its own b/p scores.
                    for k in range(0, b, bp):
                        v[lo + k : lo + k + bp] = _sig_batch(zj[k : k + bp])
                    vj = v[own]
                else:
                    vj = _sig_batch(zj)
                np.multiply(vj, eta_scale, out=w[own])
        if timer:
            t0 = timer.lap("sig", t0)

        # 5. the update.  Row ranks sum their gradients into x once per
        # round.  Column ranks update their own x, in one span unless a trace
        # point falls inside the round, where the update is split.  Counters
        # advance in closed form per applied span, so they read at every
        # trace point what iteration-by-iteration accounting would give.
        if row:
            gs = [np.zeros(n) for _ in ranks]
            for rk, g in zip(ranks, gs):
                add_rows_transpose(rk.data, rk.ids, v[rk.spot], g, rows=rk.rows)
            if timer:
                t0 = timer.lap("gradient", t0)
            g = cluster.combine(gs)
            if timer:
                t0 = timer.lap("collectives", t0)
            np.multiply(g, eta_scale, out=g)
            x += g
        done = 0
        while done < s:
            stop = s if row or next_it is None or next_it >= t + s else max(next_it - t, done + 1)
            if stop - done == s:
                if not row:
                    for rk in ranks:
                        add_rows_transpose(rk.data, rk.ids, w, rk.x, rows=rk.rows)
                c.flops += score_madds + round_flops
                c.sig_evals += sb
            else:
                lo, hi = done * b, stop * b
                span = ids[lo:hi]
                for rk in ranks:
                    add_rows_transpose(rk.data, span, w[lo:hi], rk.x)
                c.flops += int(A.row_nnz[span].sum()) + n * (stop - done) + b * b * (stop * (stop - 1) - done * (done - 1)) // 2
                c.sig_evals += hi - lo
            done = stop
            if timer:
                t0 = timer.lap("update", t0)
            if next_it is not None and next_it <= t + done:
                rec.visit(t + done, x)
                next_it = rec.next_iteration
                t0 = _pc()

    return SolverRun(x.copy(), rec.trace, c.snapshot(), rec.solutions)


# ---------------------------------------------------------------------------
# sequential oracle


def run_reference(
    dataset: LabeledDataset,
    cfg: SolverConfig,
    forced_batches: Sequence[RowBlockSelector],
) -> SolverRun:
    """Single-rank textbook SGD loop over an explicit batch sequence.

    Uses the public kernels directly and touches no cluster, so it serves
    as an independent oracle for the simulated runs.
    """
    m, n = dataset.num_points, dataset.num_features
    eta_scale = cfg.eta0 / m
    H = len(forced_batches)
    counters = CostCounters()
    x = np.zeros(n)
    rec = _Recorder(dataset, counters, epoch_schedule(m, cfg.b, H))
    rec.record(0, x)
    for t, sel in enumerate(forced_batches, start=1):
        z = sampled_matvec(dataset, sel, x)
        v = sig(z)
        x = x + sampled_matvec_transpose(dataset, sel, eta_scale * v)
        if rec.next_iteration is not None and rec.next_iteration <= t:
            rec.visit(t, x)
    return SolverRun(x.copy(), rec.trace, counters, rec.solutions)
