"""Mini-batch SGD and its communication-avoiding s-step variant.

Both solvers draw from the same deterministic batch stream, so equal
seeds walk the same logical iteration sequence, and both run one round
loop.  Plain SGD is its s = 1 case without a Gram; the s-step variant
groups s iterations per round.  Each round:

  1. draws s batches;
  2. each rank forms its payload.  Column ranks score the round's rows
     over their own columns, one kernel call each.  In the row layout one
     kernel call scores every rank's rows, in the form a rank's rows take
     (under a dense cache at s > 1, one BLAS product per rank);
  3. one collective combines the payloads;
  4. the scalar recurrence gives every batch's weights; with r_j the
     scores of batch j against the round's starting point, G[j, i] the
     inner products between batch j and batch i rows, and
     w_i = (eta0/m) * v_i:  v_j = sig(r_j + sum_{i<j} G[j, i] w_i);
  5. the update x += a_tilde^T I_j^T w_j, split where a trace point
     falls inside the round.  Column ranks update their own part of x.
     In the row layout one scatter adds every rank's gradient into its own
     buffer, which the ranks keep only for the simulated reduction.

Only the scores, the recurrence and the update depend on x.  So steps 1, 2
and 5 run their x-independent part once per block of K rounds, in either
layout and with or without a dense cache: the draws come from one read of
the stream, the block's rows are gathered at once (by every column rank, or
once for all row ranks), the rows' nonzeros are summed into per-round
prefix sums (one ``cumsum``) that every flop charge reads, and each Gram
owner (a column rank, or the row layout's one replicated Gram) forms every
round's Gram blocks and index-match counts in one kernel call.  The row
layout also keys its rows' entries for the gradient scatter and sorts
every round's columns for the reduction (``rank_entries`` and
``column_support``).  K is set by what a block holds
(``_rounds_per_block``): its draws, dense rows only under a dense cache,
Gram buffers only when there is a Gram, and keyed entries only in the row
layout, so SGD rounds and rounds without a dense cache also come many to a
block.  Each round still forms its own scores, collective, recurrence and
update; one-batch column rounds over a dense cache score and update with
each dense row (a dot, and an axpy over all of x).

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
gradients over their own rows, each in its own buffer, and a round whose
rows touch few columns reduces and updates only those (the allreduce still
counts n words).
Collectives go through ``VirtualCluster.combine``, which at p = 1 only
counts them.  The recurrence reproduces plain SGD's iterates in exact
arithmetic; in floating point the trajectories agree to ~1e-10 relative
over hundreds of epochs, and at s = 1 every step mirrors plain SGD
operation for operation, so the runs coincide bitwise.

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
    column_support,
    gather_rows,
    gram_lower_blocks,
    rank_entries,
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

# A block of rounds is drawn, gathered, counted and (at s > 1) given its
# Gram blocks at once.  It holds as many rounds as keep what it stores within
# this many bytes (at least one round): per round its s*b draws at 64 bytes
# each (an int64 id, and the id and its row as Python objects in the block's
# lists), their dense rows under a dense cache, one s*b square Gram buffer
# per Gram owner, and in the row layout 16 bytes per stored entry of its
# rows (a key and a value, at the mean row's entries).  Over 112 columns with
# a dense cache and one column rank that is 273 rounds at s * b = 1, 134 at
# 2, 32 at 8, 2 at 64 and 1 from 128 on.  Row-layout SGD at b = 16 over
# rows of 20 entries and no dense cache takes 42 rounds.
_BLOCK_BYTES = 256 * 1024


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


def _sig_batch(z: np.ndarray, width: int | None = None) -> np.ndarray:
    """sig of every entry, as ranks holding ``width`` entries each (default: all) evaluate it.

    Widths up to ``_SCALAR_SIG_MAX`` take scalar exp entry by entry, over
    the entries as Python floats, wider ones one vector call per rank.
    """
    width = z.shape[0] if width is None else width
    if width <= _SCALAR_SIG_MAX:
        return np.array([_sig_scalar(t) for t in z.tolist()], dtype=np.float64)
    return np.concatenate([sig(z[k : k + width]) for k in range(0, z.shape[0], width)])


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
    """Walks an (epoch, iteration) schedule, snapshotting state as points pass.

    ``next_iteration`` is the next point's iteration (inf once all passed).
    """

    def __init__(self, dataset, counters, schedule):
        self.dataset = dataset
        self.counters = counters
        self.trace: list[TraceRecord] = []
        self.solutions: list[np.ndarray] = []
        self._sched = list(schedule)
        self._pos = 0
        self.next_iteration = self._sched[0][1] if self._sched else math.inf

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
        while self.next_iteration <= iteration:
            self.record(self._sched[self._pos][0], x_full)
            self._pos += 1
            self.next_iteration = self._sched[self._pos][1] if self._pos < len(self._sched) else math.inf


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


def _apply_row_gradient(cluster: VirtualCluster, grads: np.ndarray, support, eta_scale: float, x: np.ndarray) -> None:
    """``x += eta_scale * (sum of the row ranks' gradients)``; leaves ``grads`` zero.

    ``grads`` is a (p, n) array, one buffer per rank.  With a ``support``
    (the sorted distinct columns of the round's rows, outside which every
    buffer is zero) only those entries are reduced and updated, gathered
    and zeroed in all buffers by one flat index each; with None, all n are.
    Both give the same bits: off the support the update adds +0.0, which
    changes no entry of x (x starts at +0.0, and a sum is -0.0 only if both
    terms are).  The collective counts n words either way.
    """
    n = len(x)
    flat = grads.reshape(-1)
    if support is None:
        cols = at = slice(None)
        parts = grads
    else:
        cols, at = support, support + np.arange(0, flat.size, n)[:, None]
        parts = flat[at]
    g = cluster.combine(list(parts), words=n)
    x[cols] += g * eta_scale
    flat[at] = 0.0


def _rounds_per_block(sb: int, n: int, dense: bool, grams: int, entries: float) -> int:
    """K, the rounds in a block: rounds of ``sb`` rows over ``n`` columns,
    with (``dense``) or without a dense cache, ``grams`` Gram owners, and
    ``entries`` stored entries kept per row (the row layout's keyed entries)."""
    return max(1, int(_BLOCK_BYTES // (8 * sb * (8 + (n if dense else 0) + grams * sb + 2 * entries))))


class _Rank:
    """One column rank's data, its part of x, and what it holds during a block
    and a round; or the row layout's one Gram owner."""

    __slots__ = ("data", "x", "scores", "gram", "grams", "block_ids", "block_rows", "ids", "rows")

    def __init__(self, data, x, scores, gram):
        self.data = data
        self.x = x
        self.scores = scores
        self.gram = gram
        # A block's Gram blocks, one per round (Gram owners).
        self.grams = None
        # The block's row ids and their form from ``gather_rows``, and the
        # round's, which index them.  The row layout's Gram owner takes the
        # rows gathered for all row ranks.
        self.block_ids = self.block_rows = self.ids = self.rows = None


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
        # Row ranks hold b/p rows of every batch, contiguous within it: rank
        # r's rows sit at spots[r] of the round's s*b rows, and ``ranked``
        # lists the round's positions rank after rank.  The round's kernels
        # run once over all its rows; ranks keep their own buffers only for
        # the simulated reduction.
        bp = b // p
        spots = [
            slice(r * bp, (r + 1) * bp) if s == 1 else (np.arange(0, sb, b)[:, None] + np.arange(r * bp, (r + 1) * bp)).ravel()
            for r in range(p)
        ]
        ranked = slice(None) if s == 1 else np.concatenate(spots)
        ranks = []
        # The replicated Gram is formed (and counted) once.
        owners = [_Rank(dataset, x, None, G)] if gram else []
    else:
        # Column ranks hold all of a round's rows, over their own columns,
        # and each forms its part of the Gram.
        ranks = [
            _Rank(D, x[start:stop], buf[:sb], buf[sb:].reshape(sb, sb) if casgd else None)
            for D, (start, stop), buf in zip(cluster.column_slices, cluster.layout.boundaries, bufs)
        ]
        owners = ranks if gram else []
    # A block holds K rounds, and every Gram owner one Gram buffer per round
    # (its round buffer itself when K = 1).
    K = _rounds_per_block(sb, n, A.dense_cache() is not None, len(owners), A.nnz / m if row else 0)
    for rk in owners:
        rk.grams = rk.gram[None] if K == 1 else np.zeros((K, sb, sb))
    w = np.empty(sb)
    v = np.empty(sb) if row else None
    # Row ranks' gradient buffers, zero between rounds.
    grads = np.zeros((p, n)) if row else None
    flat_grads = grads.reshape(-1) if row else None
    # Per iteration: batch offset, its scores, its Gram rows left of the
    # diagonal block, the weights they multiply, and its own weights;
    # views, built once, stay valid as the buffers are rewritten in place.
    recurrence = [
        (lo, rs[lo : lo + b], (G[lo, :lo] if b == 1 else G[lo : lo + b, :lo]) if lo else None, w[:lo], slice(lo, lo + b))
        for lo in range(0, sb, b)
    ]
    # Flops of a whole round's update past its rows' nonzeros (see step 5).
    update_flops = (n if row else n * s) + b * b * s * (s - 1) // 2
    t0 = _pc()

    for t in range(0, iterations, s):
        # 1. draw s batches, read once per block with the block's
        # x-independent work: every rank's rows, the rows' nonzeros (prefix
        # sums per round, which every flop charge reads) and every Gram
        # owner's blocks.  A round is charged its scores' multiply-adds and
        # its Gram's index matches when its collective runs.
        k = t // s % K
        if not k:
            count = min(K, (iterations - t) // s)
            block = np.array(source.peek_indices(count * s), dtype=np.int64).reshape(count, sb)
            source.advance(count * s)
            for rk in ranks:
                rk.block_rows = gather_rows(rk.data, block, s)
                rk.block_ids = block.tolist()
            if row:
                # Every rank's rows at once, in the form a rank's rows take;
                # each round's entries keyed for one scatter into the ranks'
                # buffers, rank after rank, with each rank's first s-1
                # batches (its payload head) at the start of its stretch.
                block_rows = gather_rows(dataset, block, s, s * bp)
                dense_rows = isinstance(block_rows, np.ndarray)
                keys, vals, counts = rank_entries(dataset, block[:, ranked], s * bp)
                starts = np.zeros(counts.size + 1, dtype=np.int64)
                np.cumsum(counts, out=starts[1:])
                bounds = starts[::sb].tolist()
                stretch = starts[:-1].reshape(count, p, s * bp)
                heads = np.stack((stretch[..., 0], stretch[..., (s - 1) * bp]), axis=-1).tolist()
                supports = column_support(dataset, block, block_rows)
                for rk in owners:
                    rk.block_rows = block_rows
            sums = np.zeros((count, sb + 1), dtype=np.int64)
            np.cumsum(A.row_nnz[block], axis=1, out=sums[:, 1:])
            charges = sums[:, -1]
            if timer:
                t0 = timer.lap("sampling", t0)
            for rk in owners:
                charges = charges + gram_lower_blocks(rk.data, block, b, out=rk.grams[:count], rows=rk.block_rows)[1]
            if timer and gram:
                t0 = timer.lap("gram", t0)
            charges = charges.tolist()
            nnz = sums.tolist()
        nnz_k = nnz[k]

        # 2. each rank forms its payload
        for rk in ranks:
            rk.ids, rk.rows = rk.block_ids[k], rk.block_rows[k]
            batch_scores(rk.data, rk.ids, rk.x, rk.rows, rk.scores)
        if row:
            ids, rows = block[k], block_rows[k]
            if dense_rows:
                # One BLAS product per rank: its bits may depend on the rows
                # it is handed.
                for spot in spots:
                    rs[spot] = batch_scores(dataset, ids[spot], x, rows[spot])
            else:
                batch_scores(dataset, ids, x, rows, rs)
            if casgd:
                # Each rank's rows' values of the first s-1 batches (the
                # Gram's column side), then its scores for all s batches.
                payloads = [np.concatenate((vals[lo:hi], rs[spot])) for (lo, hi), spot in zip(heads[k], spots)]
        if K > 1:
            for rk in owners:
                rk.gram[...] = rk.grams[k]
        if timer:
            t0 = timer.lap("score_matvec", t0)

        # 3. one collective
        if not row:
            summed = cluster.combine(bufs)
            if summed is not total:
                total[:] = summed
        elif casgd:
            # Every rank receives what ``rs`` already holds.
            cluster.combine(payloads, gather=True)
        c.flops += charges[k]
        if timer:
            t0 = timer.lap("collectives", t0)

        # 4. the scalar recurrence z_j = r_j + G[j, :j] w
        if b == 1:
            # One score per iteration, read as Python floats; sig as
            # ``_sig_scalar`` evaluates it.
            scores = rs.tolist()
            for lo, _, g_j, w_head, _ in recurrence:
                zj = scores[lo]
                if lo:
                    zj += g_j.dot(w_head)
                if zj >= 0.0:
                    e = math.exp(-zj)
                    vj = e / (1.0 + e)
                else:
                    vj = 1.0 / (1.0 + math.exp(zj))
                w[lo] = vj * eta_scale
                if row:
                    v[lo] = vj
        else:
            for lo, r_j, g_j, w_head, own in recurrence:
                zj = r_j + g_j @ w_head if lo else r_j
                if row:
                    # Each row rank evaluates its own b/p scores.
                    v[own] = vj = _sig_batch(zj, bp)
                else:
                    vj = _sig_batch(zj)
                np.multiply(vj, eta_scale, out=w[own])
        if timer:
            t0 = timer.lap("sig", t0)

        # 5. the update.  Row ranks' gradients go into their buffers in one
        # scatter (dense rows: one BLAS product per rank), and the buffers
        # are summed into x once per round.  Column ranks update their own x, in one span unless a trace
        # point falls inside the round, where the update is split.  Counters
        # advance in closed form per applied span: its rows' nonzeros, n per
        # iteration (column) or round (row), and i*b*b recurrence flops for
        # iteration i.  So they read at every trace point what
        # iteration-by-iteration accounting would give.
        if row:
            if dense_rows:
                for spot, g in zip(spots, grads):
                    add_rows_transpose(dataset, ids[spot], v[spot], g, rows=rows[spot])
            else:
                lo, hi = bounds[k], bounds[k + 1]
                np.add.at(flat_grads, keys[lo:hi], vals[lo:hi] * np.repeat(v[ranked], counts[k]))
            if timer:
                t0 = timer.lap("gradient", t0)
            _apply_row_gradient(cluster, grads, supports[k], eta_scale, x)
            if timer:
                t0 = timer.lap("collectives", t0)
        if row or next_it >= t + s:
            if not row:
                for rk in ranks:
                    add_rows_transpose(rk.data, rk.ids, w, rk.x, rk.rows)
            c.flops += nnz_k[-1] + update_flops
            c.sig_evals += sb
            if timer:
                t0 = timer.lap("update", t0)
            if next_it <= t + s:
                rec.visit(t + s, x)
                next_it = rec.next_iteration
                t0 = _pc()
        else:
            # Spans of whole iterations, split where trace points fall.
            done = 0
            while done < s:
                stop = s if next_it >= t + s else max(next_it - t, done + 1)
                lo, hi = done * b, stop * b
                for rk in ranks:
                    add_rows_transpose(rk.data, block[k, lo:hi], w[lo:hi], rk.x)
                c.flops += nnz_k[hi] - nnz_k[lo] + n * (stop - done) + b * b * (stop * (stop - 1) - done * (done - 1)) // 2
                c.sig_evals += hi - lo
                done = stop
                if timer:
                    t0 = timer.lap("update", t0)
                if next_it <= t + done:
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
        if rec.next_iteration <= t:
            rec.visit(t, x)
    return SolverRun(x.copy(), rec.trace, counters, rec.solutions)
