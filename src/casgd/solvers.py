"""Mini-batch SGD and its communication-avoiding s-step variant.

Both solvers draw from the same deterministic batch stream, so equal
seeds walk the same logical iteration sequence, and both run one round
loop.  Plain SGD is its s = 1 case without a Gram; the s-step variant
groups s iterations per round.  Each round:

  1. draws s batches;
  2. each rank forms its payload.  Column ranks score the round's rows
     over their own columns, one kernel call each.  In the row layout one
     kernel call scores every rank's rows from their gathered entries
     (one ``np.vecdot`` when they hold equally many entries, else one
     ``np.bincount`` by row), with or without a dense cache;
  3. one collective combines the payloads;
  4. the scalar recurrence gives every batch's weights; with r_j the
     scores of batch j against the round's starting point, G[j, i] the
     inner products between batch j and batch i rows, and
     w_i = (eta0/m) * v_i:  v_j = sig(r_j + sum_{i<j} G[j, i] w_i).
     sig is elementwise, so each batch takes it once in either layout:
     short batches by scalar exp, longer ones in one vector call;
  5. the update x += a_tilde^T I_j^T w_j, split where a trace point
     falls inside the round.  Column ranks update their own part of x.
     In the row layout one ``np.bincount`` adds every rank's gradient into
     its own fresh buffer, which the ranks keep only for the simulated
     reduction.

Only the scores, the recurrence and the update depend on x.  So steps 1, 2
and 5 run their x-independent part once per block of K rounds, in either
layout and with or without a dense cache: the draws come from one read of
the stream, flattened into one int64 array, the block's rows are gathered
at once (by every column rank, or once for all row ranks), the rows'
nonzeros are summed into per-round prefix sums (one ``cumsum``) that every
flop charge reads, and each Gram owner (a column rank, or the row layout's
one replicated Gram under a dense cache) forms every round's Gram blocks
and index-match counts in one kernel call; under a dense cache the counts
come from the rows of the matrix's CSR pattern.  The row layout reads its
block from one gather of the rows' stored entries and at most one sort
(``RowBlock``): each round's entries for its scores, its support and
gradient keys, its allgather's words and, without a dense cache, its Gram
pairs and their match counts.
Each such round adds its pairs straight into G and clears the entries they
wrote once the recurrence has read them (``RowBlock.add_gram`` and
``clear_gram``), so G's strictly lower blocks are zero between rounds.  K
is set by what a block holds (``_rounds_per_block``): its draws, dense rows
only where a dense cache's rows are gathered (column ranks, and the row
layout's Gram owner), Gram buffers only for owners that form a block's
Gram at once, and gathered entries only where rounds take them, so SGD
rounds and rounds without a dense cache also come many to a block.  Each
round still forms its own scores, collective, recurrence and update.

Rounds run in segments: a block's rounds up to the next trace point.
Counters advance once per segment, in closed form, before the point is
recorded: its flops and sig evaluations and, at one column rank, its
collectives, which move nothing and are only counted
(``VirtualCluster.count``).  A column round that a trace point falls
inside ends its segment, and its update is applied in spans of whole
iterations, each counted as it is applied; over dense rows the spans update
a copy of x, which the points inside the round read, and x takes the whole
round's product, so where points fall never changes the bits.  Two-row
rounds over dense rows add their split spans into x itself, row by row in
row order, which gives an unsplit round's bits.  The row layout
materializes x only at round ends, so a point ends its segment with the
round that holds it.  So every trace point reads what
iteration-by-iteration accounting would give.  One column rank runs a
segment's rounds in one inner loop, with its kernels bound by the rows'
form once per block: a one-row round (s = b = 1) is a dot, the sig and an
axpy (under a dense cache over all of x, each round reading its row in
place from one gather of the block's rows); a two-row round over dense
rows (s = 2, b = 1) is two dots against the round's starting x, the
two-step recurrence over Python floats and two axpys; other dense rows at
s > 1 take a BLAS product for the scores and ``x += R.T @ w`` for the
update, and other forms the round kernels.  More column ranks and the row
layout run each round through every rank's kernels and a collective.

Every dot of one row with x (a one-row round's, a two-row round's, and
each row's of a one-batch round taken row by row) and the b = 1
recurrence's dots call scipy's BLAS level 1 ``ddot`` directly, and one- and
two-row rounds over a dense cache update x by ``daxpy`` in place (Lawson
et al., "Basic Linear Algebra Subprograms for Fortran Usage", ACM TOMS
5(3), 1979); on such short vectors numpy's per-call dispatch costs more
than the arithmetic.
``ddot`` gives ``ndarray.dot``'s bits.  ``daxpy`` fuses each multiply-add,
so on values other than +-1 it can round x differently from
``x += w * a``; SGD and s = 1 take the same loop, so they still coincide
bitwise.  ``add_rows_transpose`` keeps numpy's axpy, whose bits
``RowBlock.gradients`` reproduces.

The payload is set by the entry point that ran:

  SGD, column: the b scores, partial over each rank's columns.
  s-step, column: the s*b scores plus an s*b square Gram buffer
    (s^2 b^2 + s b words), even at s = 1.
  SGD, row: nothing; ranks score their own b/p rows, and the length-n
    gradient allreduce is the round's only collective.
  s-step, row: one allgather of the stored entries of the first s-1
    batches' rows (only those appear on the Gram's column side) plus all
    s*b scores, then the gradient allreduce.  The allgather is counted
    (``VirtualCluster.count``), not built: every rank already holds the
    scores, and the replicated Gram is formed from the dataset.

Column ranks work on their own column slices of the matrix and update
their part of x with no further communication; row ranks accumulate
gradients over their own rows, each in its own fresh buffer.  A round whose
rows touch few columns scatters into buffers over just those columns, and
reduces and updates only those; the allreduce still counts n words.
Reductions go through ``VirtualCluster.combine``, which at p = 1 only
counts them; one column rank counts a segment's at once.  The recurrence
reproduces plain SGD's iterates in exact arithmetic; in floating point the
trajectories agree to ~1e-10 relative over hundreds of epochs, and at
s = 1 every step mirrors plain SGD operation for operation, so the runs
coincide bitwise.

Counter conventions (shared with the closed-form cost module): one flop
per sparse multiply-add and per dense solution-axpy element; scalar
nonlinearity evaluations land in ``sig_evals``, one per distinct scalar
per logical iteration regardless of how many ranks replicate it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cluster import BLOCK_COLUMN, BLOCK_ROW, CostCounters, VirtualCluster
from .model import _scores, accuracy, loss, sig
from .sampling import BatchStream
from .sparse import (
    LabeledDataset,
    RowBlock,
    add_rows_transpose,
    batch_scores,
    daxpy,
    ddot,
    gather_rows,
    gram_lower_blocks,
)

__all__ = [
    "ConfigError",
    "SolverConfig",
    "TraceRecord",
    "SolverRun",
    "iterations_per_epoch",
    "epoch_schedule",
    "run_sgd",
    "run_casgd",
    "relative_solution_error",
]

# Batch vectors at or below this length go through scalar exp (numpy
# dispatch overhead dominates tiny arrays in the per-iteration loop).  Best of
# 31 x 2000 calls on a 2-vCPU x86-64 host, scalar loop against ``model.sig``:
#
#     entries    8    16    32    40    64
#     scalar   1.7   2.7   5.2   6.3  10.0 us
#     vector   6.3   6.2   6.3   7.2   7.0 us
_SCALAR_SIG_MAX = 32

# A block of rounds is drawn, gathered, counted and (at s > 1) given its
# Gram blocks at once.  It holds as many rounds as keep what it stores within
# this many bytes (at least one round): per round its s*b draws at 64 bytes
# each (an int64 id, and the id and its row as Python objects in the block's
# lists), their dense rows where they are gathered (column ranks under a
# dense cache, and the row layout's Gram owner), one s*b square Gram buffer
# per Gram owner that forms a block's Gram at once, and 24 bytes per
# gathered entry of its rows, at the mean row's entries: a column, a value
# and a row index in the column layout without a dense cache at s > 1, and
# in the row layout a column, a value and a gradient key, what its
# ``RowBlock`` keeps for its rounds.  Not counted: the int64 scratch that
# building a ``RowBlock`` frees before its first round (each entry's row,
# rank and sort key, and over ragged rows also the gather's index of every
# entry; rows of one width are read by whole rows), the row indices of
# its rounds of unequal rows, the Gram pairs that s > 1 row rounds also
# keep, and the pattern rows that a dense Gram gathers for its match counts,
# one byte per cell, 1/8 the size of the dense rows they accompany.  Over
# 112 columns with a dense cache and one column rank that is 273 rounds at
# s * b = 1, 134 at 2, 32 at 8, 2 at 64 and 1 from 128 on.  Row-layout SGD at
# b = 16 over rows of 20 entries and no dense cache takes 30 rounds.
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


def iterations_per_epoch(m: int, b: int) -> int:
    if b < 1:
        raise ConfigError("batch size must be at least 1")
    return -(-m // b)


def epoch_schedule(m: int, b: int, total_iterations: int, round_size: int = 1) -> list[tuple[int, int]]:
    """(epoch, iteration) trace points: every ceil(m/b) iterations, each
    rounded up to a multiple of ``round_size``.

    Block-row runs only materialize the solution at round ends, so they
    take ``round_size = s``; at 1 the points are the epoch ends.
    """
    ipe = iterations_per_epoch(m, b)
    return [(e, round_size * -(-e * ipe // round_size)) for e in range(1, total_iterations // ipe + 1)]


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
    """sig of every entry: up to ``_SCALAR_SIG_MAX`` entries by scalar exp,
    over the entries as Python floats, more in one ``model.sig`` call."""
    if len(z) <= _SCALAR_SIG_MAX:
        return np.array([_sig_scalar(t) for t in z.tolist()], dtype=np.float64)
    return sig(z)


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
        # Loss and accuracy read one product a_tilde x.
        scores = _scores(self.dataset, x_full)
        self.trace.append(
            TraceRecord(
                epoch=epoch,
                loss=loss(self.dataset, x_full, scores),
                accuracy=accuracy(self.dataset, x_full, scores),
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
    schedule: Sequence[tuple[int, int]] | None = None,
) -> SolverRun:
    """One-communication-per-iteration SGD over the cluster (requires s = 1)."""
    if cfg.s != 1:
        raise ConfigError("run_sgd requires s == 1")
    return _run_rounds(dataset, cfg, cluster, schedule, casgd=False)


def run_casgd(
    dataset: LabeledDataset,
    cfg: SolverConfig,
    cluster: VirtualCluster,
    *,
    schedule: Sequence[tuple[int, int]] | None = None,
) -> SolverRun:
    """s-step SGD: one communication round per s logical iterations.

    The iteration budget is rounded up to a multiple of s (the extra
    iterations run).  Trace points default to epoch boundaries; block-row
    runs align them up to round boundaries, where the solution is first
    materialized.
    """
    return _run_rounds(dataset, cfg, cluster, schedule, casgd=True)


# ---------------------------------------------------------------------------
# the round loop


def _apply_row_gradient(cluster: VirtualCluster, parts: np.ndarray, support, eta_scale: float, x: np.ndarray) -> None:
    """``x += eta_scale * (sum of the row ranks' gradients)``.

    ``parts`` holds one gradient per rank, over the round's ``support`` (the
    sorted distinct columns of its rows, off which every gradient is zero),
    or with None over all n columns.  Only the support's entries are then
    reduced and updated.  Both give the same bits: off the support the
    update adds +0.0, which changes no entry of x (x starts at +0.0, and a
    sum is -0.0 only if both terms are).  The collective counts n words
    either way.
    """
    # A list hands ``allreduce_sum`` the rank rows as views made once; over
    # the array it makes them again at each pass (about 1 us a call at p = 4).
    g = cluster.combine(list(parts), words=len(x))
    if support is None:
        x += g * eta_scale
    else:
        x[support] += g * eta_scale


def _rounds_per_block(sb: int, n: int, dense: bool, grams: int, entries: float) -> int:
    """K, the rounds in a block: rounds of ``sb`` rows over ``n`` columns,
    with (``dense``) or without their dense rows gathered, ``grams`` Gram
    owners that keep a block of Gram buffers, and ``entries`` stored
    entries gathered per row."""
    return max(1, int(_BLOCK_BYTES // (8 * sb * (8 + (n if dense else 0) + grams * sb + 3 * entries))))


class _Rank:
    """One column rank's data, its part of x, and what it holds during a
    block; or the row layout's one Gram owner."""

    __slots__ = ("data", "x", "scores", "gram", "grams", "block_rows")

    def __init__(self, data, x, scores, gram):
        self.data = data
        self.x = x
        self.scores = scores
        self.gram = gram
        # A block's Gram blocks, one per round (Gram owners).
        self.grams = None
        # The block's rows in their form from ``gather_rows`` (column ranks).
        self.block_rows = None


def _run_rounds(dataset, cfg, cluster, schedule, casgd):
    """The round loop of both solvers; ``casgd`` selects the s-step payload."""
    _check_cluster(cfg, cluster, dataset)
    m, n = dataset.num_points, dataset.num_features
    s, b, p = cfg.s, cfg.b, cluster.p
    sb = s * b
    row = cfg.layout == BLOCK_ROW
    # One column rank runs a segment's rounds in one inner loop.
    local = not row and p == 1
    H = cfg.total_iterations if cfg.epochs is None else cfg.epochs * iterations_per_epoch(m, b)
    iterations = s * -(-H // s)
    if schedule is None:
        schedule = epoch_schedule(m, b, H, s if row else 1)
    # Row ranks draw their own rows of every batch.
    source = BatchStream(cfg.seed, m, b, cluster.layout.boundaries if row else None)
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    dense = A.dense_cache() is not None
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
        # Row ranks hold b/p rows of every batch, contiguous within it.  The
        # round's kernels run once over all its rows; ranks keep their own
        # buffers only for the simulated reduction.
        bp = b // p
        ranks = []
        # The replicated Gram is formed (and counted) once: a block at a
        # time from dense rows, or else round by round from the block's
        # pairs, straight into G.
        owners = [_Rank(dataset, x, None, G)] if gram and dense else []
    else:
        # Column ranks hold all of a round's rows, over their own columns,
        # and each forms its part of the Gram.
        ranks = [
            _Rank(D, x[start:stop], buf[:sb], buf[sb:].reshape(sb, sb) if casgd else None)
            for D, (start, stop), buf in zip(cluster.column_slices, cluster.layout.boundaries, bufs)
        ]
        owners = ranks if gram else []
    # A block holds K rounds, and every Gram owner one Gram buffer per round
    # (its round buffer itself when K = 1).  Column ranks gather a dense
    # cache's rows, as does the row layout's Gram owner; row rounds, and
    # column rounds at s > 1 without a dense cache, gather stored entries.
    gathered = row or not dense and s > 1
    K = _rounds_per_block(sb, n, dense and (not row or bool(owners)), len(owners), A.nnz / m if gathered else 0)
    for rk in owners:
        rk.grams = rk.gram[None] if K == 1 else np.zeros((K, sb, sb))
    # One column rank's round copies its Gram blocks into G, which the
    # recurrence's views read (K = 1: they are G).
    grams = owners[0].grams if local and gram and K > 1 else None
    round_gram = row and gram and not dense
    w = np.empty(sb)
    v = np.empty(sb) if row else None
    # Per iteration: batch offset, its scores, its Gram rows left of the
    # diagonal block, the weights they multiply, and its own weights;
    # views, built once, stay valid as the buffers are rewritten in place.
    recurrence = [
        (lo, rs[lo : lo + b], (G[lo, :lo] if b == 1 else G[lo : lo + b, :lo]) if lo else None, w[:lo], slice(lo, lo + b))
        for lo in range(0, sb, b)
    ]
    # Flops of a whole round's update past its rows' nonzeros (see step 5).
    update_flops = (n if row else n * s) + b * b * s * (s - 1) // 2

    def weigh():
        """4. The scalar recurrence z_j = r_j + G[j, :j] w: every batch's weights."""
        if b == 1:
            # One score per iteration, read as Python floats; sig as
            # ``_sig_scalar`` evaluates it, inline.
            scores = rs.tolist()
            for lo, _, g_j, w_head, _ in recurrence:
                zj = scores[lo]
                if lo:
                    zj += ddot(g_j, w_head)
                if zj >= 0.0:
                    e = math.exp(-zj)
                    vj = e / (1.0 + e)
                else:
                    vj = 1.0 / (1.0 + math.exp(zj))
                w[lo] = vj * eta_scale
                if row:
                    v[lo] = vj
            return
        for lo, r_j, g_j, w_head, own in recurrence:
            zj = r_j + g_j @ w_head if lo else r_j
            vj = _sig_batch(zj)
            if row:
                v[own] = vj
            np.multiply(vj, eta_scale, out=w[own])

    t = 0
    while t < iterations:
        # 1. draw a block of s-batch rounds, read once with the block's
        # x-independent work: every rank's rows, the rows' nonzeros (prefix
        # sums per round, which every flop charge reads) and every Gram
        # owner's blocks.
        count = min(K, (iterations - t) // s)
        block = np.fromiter(itertools.chain.from_iterable(source.peek_indices(count * s)), np.int64, count * sb)
        block = block.reshape(count, sb)
        source.advance(count * s)
        if row:
            # One gather of every rank's entries: each round's rows for the
            # scores, support, gradient keys, allgather words and Gram pairs.
            # Under a dense cache the Gram owner's ``gram_lower_blocks``
            # gathers the block's dense rows itself.
            entries = RowBlock(dataset, block, b, bp, casgd)
            block_rows = entries.rounds
        elif local and sb == 1 and dense:
            # One-row rounds read the rows of one gather of the dense cache.
            block_rows = A.dense_cache()[block[:, 0]]
        else:
            for rk in ranks:
                rk.block_rows = gather_rows(rk.data, block, s)
            # All the rows, at one rank.
            block_rows = ranks[0].block_rows
        # The form the rows take is fixed for the block.
        dense_rows = isinstance(block_rows, np.ndarray)
        sums = np.zeros((count, sb + 1), dtype=np.int64)
        np.cumsum(A.row_nnz[block], axis=1, out=sums[:, 1:])
        # A round's scores and Gram cost its rows' nonzeros and its index
        # matches; its whole update adds its rows' nonzeros and
        # ``update_flops``.  ``done`` sums both over the block's rounds.
        charges = sums[:, -1]
        for rk in owners:
            charges = charges + gram_lower_blocks(rk.data, block, b, out=rk.grams[:count], rows=rk.block_rows)[1]
        if round_gram:
            charges = charges + entries.matches
        done = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(charges + sums[:, -1] + update_flops, out=done[1:])
        charges, nnz, done = charges.tolist(), sums.tolist(), done.tolist()
        # Two-row rounds (s = 2, b = 1) over dense rows at one column rank
        # read each round's G[1, 0] as a Python float.
        g10 = owners[0].grams[:count, 1, 0].tolist() if local and dense_rows and sb == 2 else None

        k = 0
        while k < count:
            # A segment: rounds k..j-1, which end at or before the next trace
            # point, run whole.  Column round j splits its update when the
            # point falls inside it; the row layout runs the round holding a
            # point whole and records it at the round's end.
            ahead = min(next_it, t + count * s) - t
            j = max(k, -(-ahead // s) if row else ahead // s)
            split = j * s < ahead
            if local and sb == 1 and dense:
                # One row per round: a dot, the sig and an axpy over all of
                # x, which ``daxpy`` updates in place.
                for a in block_rows[k:j]:
                    daxpy(a, x, n, _sig_scalar(ddot(a, x)) * eta_scale)
            elif local and sb == 1:
                for ((cols, a),) in block_rows[k:j]:
                    # An empty row scores +0.0, which ``ddot`` would refuse.
                    wk = _sig_scalar(ddot(a, x[cols]) if len(a) else 0.0) * eta_scale
                    x[cols] += wk * a
            elif g10 is not None:
                # Two rows per round: both dots read x before either
                # ``daxpy``, and the second score adds G[1, 0] w0, the
                # recurrence.  A split round leaves its weights in w, and
                # its spans add its rows into x.  Per round over dense rows
                # of 112 columns (best of 9 x 20000 rounds, 2 vCPUs, OpenBLAS
                # on one thread): this loop, the round kernels, a general
                # loop of S ``ddot``s, a Python-float recurrence and S
                # ``daxpy``s, and the kernels' BLAS scores and update around
                # that recurrence.  Only two rows pay.
                #
                #     s*b   straight-line   kernels   level-1 loop   BLAS + floats
                #      2        2.06          3.69        3.65           3.92 us
                #      4          -           4.72        5.54           4.99
                #      8          -           6.74        9.66           7.37
                for r in range(k, j + split):
                    a0, a1 = block_rows[r]
                    w0 = _sig_scalar(ddot(a0, x)) * eta_scale
                    w1 = _sig_scalar(ddot(a1, x) + g10[r] * w0) * eta_scale
                    if r < j:
                        daxpy(a0, x, n, w0)
                        daxpy(a1, x, n, w1)
                    else:
                        w[0], w[1] = w0, w1
            elif local:
                for r, rows in enumerate(block_rows[k : j + split], k):
                    if dense_rows:
                        np.matmul(rows, x, out=rs)
                    else:
                        batch_scores(dataset, block[r], x, rows, rs)
                    if grams is not None:
                        G[...] = grams[r]
                    weigh()
                    if r < j:
                        if dense_rows:
                            x += rows.T @ w
                        else:
                            add_rows_transpose(dataset, block[r], w, x, rows)
            else:
                for r in range(k, j + split):
                    # 2. each rank forms its payload
                    ids = block[r]
                    for rk in ranks:
                        batch_scores(rk.data, ids, rk.x, rk.block_rows[r], rk.scores)
                    if row:
                        batch_scores(dataset, ids, x, block_rows[r], rs)
                    if K > 1:
                        for rk in owners:
                            rk.gram[...] = rk.grams[r]
                    if round_gram:
                        entries.add_gram(r, G)
                    # 3. one collective
                    if not row:
                        total[:] = cluster.combine(bufs)
                    elif casgd:
                        # The allgather of every rank's scores and its rows'
                        # entries of the first s-1 batches is only counted:
                        # every rank already holds the scores in ``rs``, and
                        # the Gram is formed from the dataset.
                        cluster.count(sb + entries.head_words[r])
                    weigh()
                    if round_gram:
                        entries.clear_gram(r, G)
                    # 5. the update.  Row ranks' gradients go into fresh
                    # buffers in one scatter, over the round's support when
                    # it has one, and the buffers are summed into x once per
                    # round.  Column ranks update their own part of x.
                    if row:
                        _apply_row_gradient(cluster, entries.gradients(r, v), entries.supports[r], eta_scale, x)
                    elif r < j:
                        for rk in ranks:
                            add_rows_transpose(rk.data, ids, w, rk.x, rk.block_rows[r])
            # Counters advance in closed form per segment: whole rounds,
            # their sig evaluations and, at one rank, their collectives
            # (nothing moves, so they are only counted); a split round's
            # scores, Gram and collective, then each applied span.  So they
            # read at every trace point what round-by-round accounting gives.
            c.flops += done[j] - done[k]
            c.sig_evals += (j - k) * sb
            if local:
                cluster.count(size, j - k + split)
            if not split:
                if next_it <= t + j * s:
                    rec.visit(t + j * s, x)
                    next_it = rec.next_iteration
                k = j
                continue
            # Spans of whole iterations of round j, split where trace points
            # fall: its rows' nonzeros, n per iteration and i*b*b recurrence
            # flops for iteration i.  Over dense rows the spans update a copy
            # of x, which the points inside the round read, and x takes the
            # whole round's product, as an unsplit round does; so where the
            # points fall does not change the bits.  Two-row rounds add their
            # rows into x itself by ``daxpy``, in row order, as unsplit.
            c.flops += charges[j]
            start, nnz_j, at = t + j * s, nnz[j], 0
            spans = x.copy() if dense_rows and g10 is None else x
            while at < s:
                stop = s if next_it >= start + s else max(next_it - start, at + 1)
                lo, hi = at * b, stop * b
                if g10 is not None:
                    for i in range(lo, hi):
                        daxpy(block_rows[j, i], x, n, w[i])
                elif stop < s or not dense_rows:
                    for rk, (first, last) in zip(ranks, cluster.layout.boundaries):
                        add_rows_transpose(rk.data, block[j, lo:hi], w[lo:hi], spans[first:last])
                else:
                    for rk in ranks:
                        add_rows_transpose(rk.data, block[j], w, rk.x, rk.block_rows[j])
                c.flops += nnz_j[hi] - nnz_j[lo] + n * (stop - at) + b * b * (stop * (stop - 1) - at * (at - 1)) // 2
                c.sig_evals += hi - lo
                at = stop
                if next_it <= start + at:
                    rec.visit(start + at, spans if at < s else x)
                    next_it = rec.next_iteration
            k = j + 1
        t += count * s

    return SolverRun(x.copy(), rec.trace, c.snapshot(), rec.solutions)
