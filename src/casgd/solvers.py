"""Mini-batch SGD and its communication-avoiding s-step variant.

Both solvers draw from the same deterministic batch stream, so equal
seeds walk the same logical iteration sequence.  Plain SGD communicates
once per iteration; the s-step variant groups s iterations per round:

  block column: each rank forms partial batch scores and partial
    strictly-lower Gram blocks over its column slice; one allreduce
    combines them (payload: s*b scores plus an s*b square Gram buffer,
    i.e. s^2 b^2 + s b words).  Ranks then replay the s updates against
    their own column slices with no further communication.
  block row: one allgather shares the sampled-row values of the first
    s-1 batches (only those are ever needed on the Gram's column side)
    plus all s*b scores; gradients accumulate locally and a single
    length-n allreduce finishes the round.

Inside a round, with r_j the scores of batch j against the round's
starting point and w_i = (eta0/m) * v_i:

    v_j = sig(r_j + sum_{i<j} G[j, i] w_i),
    x updated incrementally by a_tilde^T I_j^T w_j,

where G[j, i] holds inner products between batch j and batch i rows.
This reproduces plain SGD's iterates exactly in exact arithmetic; in
floating point the trajectories agree to ~1e-10 relative over hundreds
of epochs, and for s = 1 the single-rank code paths mirror plain SGD
operation for operation so the runs coincide bitwise.

Counter conventions (shared with the closed-form cost module): one flop
per sparse multiply-add and per dense solution-axpy element; scalar
nonlinearity evaluations land in ``sig_evals``, one per distinct scalar
per logical iteration regardless of how many ranks replicate it.  The
single-rank loops bump collective counters inline instead of calling the
identity-collective, which changes nothing observable.
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
    _VECTORIZE_MIN_ROWS,
    _matched_dot,
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
    rel_solution_error: float | None
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

    def add(self, phase: str, seconds: float) -> None:
        self.totals[phase] += seconds


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

    def next_indices(self) -> list[int]:
        ids = self._ids[self._pos]
        self._pos += 1
        return ids

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
    if cfg.layout == BLOCK_ROW:
        return BatchStream(
            cfg.seed, dataset.num_points, cfg.b, mode="per_rank", rank_ranges=cluster.layout.boundaries
        )
    return BatchStream(cfg.seed, dataset.num_points, cfg.b)


def _check_cluster(cfg: SolverConfig, cluster: VirtualCluster, dataset: LabeledDataset) -> None:
    if cluster.layout.kind != cfg.layout:
        raise ConfigError(f"cluster layout {cluster.layout.kind} != config layout {cfg.layout}")
    if cluster.p != cfg.p:
        raise ConfigError(f"cluster has {cluster.p} ranks, config says {cfg.p}")
    if cluster.dataset is not dataset:
        raise ConfigError("cluster was partitioned from a different dataset")
    if cfg.b > dataset.num_points:
        raise ConfigError(f"batch size {cfg.b} exceeds m={dataset.num_points}")


def _total(cfg: SolverConfig, m: int) -> int:
    if cfg.total_iterations is not None:
        return cfg.total_iterations
    return cfg.epochs * iterations_per_epoch(m, cfg.b)


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
                rel_solution_error=None,
                flops=int(c.flops),
                words=int(c.words_moved),
                messages=int(c.messages),
                collectives=int(c.collectives),
            )
        )
        self.solutions.append(np.array(x_full, dtype=np.float64))

    def visit(self, iteration: int, x_full_fn) -> None:
        while self.next_iteration is not None and self.next_iteration <= iteration:
            self.record(self._sched[self._pos][0], x_full_fn())
            self._pos += 1
            self.next_iteration = self._sched[self._pos][1] if self._pos < len(self._sched) else None


# ---------------------------------------------------------------------------
# plain SGD


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
    _check_cluster(cfg, cluster, dataset)
    m = dataset.num_points
    H = _total(cfg, m)
    sched = list(schedule) if schedule is not None else epoch_schedule(m, cfg.b, H)
    cluster.counters.reset()
    source = _source(cfg, cluster, dataset, batches, H)
    if cfg.layout == BLOCK_COLUMN:
        if cluster.p == 1:
            return _sgd_column_single(dataset, cfg, cluster, H, sched, source, timer)
        return _sgd_column_multi(dataset, cfg, cluster, H, sched, source, timer)
    return _sgd_row(dataset, cfg, cluster, H, sched, source, timer)


def _sgd_column_single(dataset, cfg, cluster, H, sched, source, timer):
    m, n = dataset.num_points, dataset.num_features
    b = cfg.b
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    rows = A.row_slices
    dr = A.dense_cache()
    c = cluster.counters
    x = np.zeros(n)
    x_fn = lambda: x
    rec = _Recorder(dataset, c, sched)
    rec.record(0, x)
    next_it = rec.next_iteration

    for t in range(1, H + 1):
        if timer:
            t0 = _pc()
        ids = source.next_indices()
        if timer:
            timer.add("sampling", _pc() - t0)
            t0 = _pc()
        if b == 1:
            i = ids[0]
            rc, rv = rows[i]
            z = np.dot(dr[i], x) if dr is not None else np.dot(rv, x[rc])
            nnz_batch = len(rv)
            # p = 1 allreduce is the identity; tree counters: b words, 0 messages.
            c.words_moved += 1
            c.collectives += 1
            c.flops += nnz_batch
            if timer:
                timer.add("score_matvec", _pc() - t0)
                t0 = _pc()
            w0 = _sig_scalar(z) * eta_scale
            c.sig_evals += 1
            if timer:
                timer.add("sig", _pc() - t0)
                t0 = _pc()
            x[rc] += w0 * rv
            c.flops += nnz_batch + n
        else:
            z = np.empty(b)
            nnz_batch = 0
            for k in range(b):
                i = ids[k]
                rc, rv = rows[i]
                z[k] = np.dot(dr[i], x) if dr is not None else np.dot(rv, x[rc])
                nnz_batch += len(rv)
            c.words_moved += b
            c.collectives += 1
            c.flops += nnz_batch
            if timer:
                timer.add("score_matvec", _pc() - t0)
                t0 = _pc()
            w = _sig_batch(z)
            c.sig_evals += b
            if timer:
                timer.add("sig", _pc() - t0)
                t0 = _pc()
            w *= eta_scale
            for k in range(b):
                rc, rv = rows[ids[k]]
                x[rc] += w[k] * rv
            c.flops += nnz_batch + n
        if timer:
            timer.add("update", _pc() - t0)
        if next_it is not None and next_it <= t:
            rec.visit(t, x_fn)
            next_it = rec.next_iteration

    return SolverRun(x.copy(), rec.trace, c.snapshot(), rec.solutions)


def _sgd_column_multi(dataset, cfg, cluster, H, sched, source, timer):
    m, n = dataset.num_points, dataset.num_features
    b = cfg.b
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    rows = A.row_slices
    c = cluster.counters
    bounds = cluster.layout.boundaries
    xs = [np.zeros(stop - start) for start, stop in bounds]
    x_fn = lambda: np.concatenate(xs)
    rec = _Recorder(dataset, c, sched)
    rec.record(0, x_fn())
    next_it = rec.next_iteration

    for t in range(1, H + 1):
        if timer:
            t0 = _pc()
        ids = source.next_indices()
        if timer:
            timer.add("sampling", _pc() - t0)
            t0 = _pc()
        nnz_batch = 0
        row_views = []
        for k in range(b):
            rc, rv = rows[ids[k]]
            nnz_batch += len(rv)
            row_views.append((rc, rv))
        partials = []
        for rank, (start, stop) in enumerate(bounds):
            zr = np.empty(b)
            xr = xs[rank]
            for k in range(b):
                rc, rv = row_views[k]
                wlo = int(np.searchsorted(rc, start))
                whi = int(np.searchsorted(rc, stop))
                zr[k] = np.dot(rv[wlo:whi], xr[rc[wlo:whi] - start]) if whi > wlo else 0.0
            partials.append(zr)
        if timer:
            timer.add("score_matvec", _pc() - t0)
            t0 = _pc()
        z = cluster.allreduce_sum(partials)
        if timer:
            timer.add("collectives", _pc() - t0)
            t0 = _pc()
        c.flops += nnz_batch
        w = _sig_batch(z)
        c.sig_evals += b
        if timer:
            timer.add("sig", _pc() - t0)
            t0 = _pc()
        w *= eta_scale
        for rank, (start, stop) in enumerate(bounds):
            xr = xs[rank]
            for k in range(b):
                rc, rv = row_views[k]
                wlo = int(np.searchsorted(rc, start))
                whi = int(np.searchsorted(rc, stop))
                if whi > wlo:
                    xr[rc[wlo:whi] - start] += w[k] * rv[wlo:whi]
        c.flops += nnz_batch + n
        if timer:
            timer.add("update", _pc() - t0)
        if next_it is not None and next_it <= t:
            rec.visit(t, x_fn)
            next_it = rec.next_iteration

    return SolverRun(x_fn(), rec.trace, c.snapshot(), rec.solutions)


def _sgd_row(dataset, cfg, cluster, H, sched, source, timer):
    m, n = dataset.num_points, dataset.num_features
    b, p = cfg.b, cluster.p
    bp = b // p
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    rows = A.row_slices
    c = cluster.counters
    x = np.zeros(n)
    x_fn = lambda: x
    rec = _Recorder(dataset, c, sched)
    rec.record(0, x)
    next_it = rec.next_iteration

    for t in range(1, H + 1):
        if timer:
            t0 = _pc()
        ids = source.next_indices()
        if timer:
            timer.add("sampling", _pc() - t0)
            t0 = _pc()
        nnz_batch = 0
        vs = []
        for rank in range(p):
            zr = np.empty(bp)
            for k in range(bp):
                rc, rv = rows[ids[rank * bp + k]]
                zr[k] = np.dot(rv, x[rc])
                nnz_batch += len(rv)
            vr = _sig_batch(zr)
            c.sig_evals += bp
            vs.append(vr)
        if timer:
            timer.add("score_matvec", _pc() - t0)
            t0 = _pc()
        gs = []
        for rank in range(p):
            g = np.zeros(n)
            vr = vs[rank]
            for k in range(bp):
                rc, rv = rows[ids[rank * bp + k]]
                g[rc] += vr[k] * rv
            gs.append(g)
        if timer:
            timer.add("gradient", _pc() - t0)
            t0 = _pc()
        g = cluster.allreduce_sum(gs)
        if timer:
            timer.add("collectives", _pc() - t0)
            t0 = _pc()
        c.flops += 2 * nnz_batch
        np.multiply(g, eta_scale, out=g)
        x += g
        c.flops += n
        if timer:
            timer.add("update", _pc() - t0)
        if next_it is not None and next_it <= t:
            rec.visit(t, x_fn)
            next_it = rec.next_iteration

    return SolverRun(x.copy(), rec.trace, c.snapshot(), rec.solutions)


# ---------------------------------------------------------------------------
# s-step variant


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
    _check_cluster(cfg, cluster, dataset)
    m = dataset.num_points
    H = _total(cfg, m)
    s = cfg.s
    rounds = -(-H // s)
    if schedule is not None:
        sched = list(schedule)
    else:
        sched = epoch_schedule(m, cfg.b, H, s=s, align_to_rounds=cfg.layout == BLOCK_ROW)
    cluster.counters.reset()
    source = _source(cfg, cluster, dataset, batches, rounds * s)
    if cfg.layout == BLOCK_COLUMN:
        if cluster.p == 1:
            return _casgd_column_single(dataset, cfg, cluster, rounds, sched, source, timer)
        return _casgd_column_multi(dataset, cfg, cluster, rounds, sched, source, timer)
    return _casgd_row(dataset, cfg, cluster, rounds, sched, source, timer)


def _casgd_column_single(dataset, cfg, cluster, rounds, sched, source, timer):
    m, n = dataset.num_points, dataset.num_features
    s, b = cfg.s, cfg.b
    sb = s * b
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    rows = A.row_slices
    dr = A.dense_cache()
    c = cluster.counters
    x = np.zeros(n)
    x_fn = lambda: x
    rec = _Recorder(dataset, c, sched)
    rec.record(0, x)
    next_it = rec.next_iteration

    # s = 1 has no Gram and mirrors plain SGD operation for operation: row
    # by row scores and updates; so do small rounds without a dense cache,
    # as they did before rounds were vectorised.  Other rounds gather their
    # rows once, take scores and Gram from BLAS or scipy products, and
    # apply the updates as one x += A[round]^T w (x is not read inside a
    # round).  Either way only the scalar recurrence runs per iteration,
    # and the update is split where a trace point falls.  Counters advance
    # in closed form per applied span, so they read at every trace point
    # what iteration-by-iteration accounting would give.
    rowwise = s == 1 or (dr is None and sb < _VECTORIZE_MIN_ROWS)
    G = np.zeros((sb, sb))
    rs = np.empty(sb) if rowwise else None
    w = np.empty(sb)
    # Per iteration: batch offset, its Gram rows left of the diagonal block
    # and the weights they multiply; views, built once, stay valid as G and
    # w are rewritten in place every round.
    recurrence = [(lo, G[lo, :lo] if b == 1 else G[lo : lo + b, :lo], w[:lo]) for lo in range(0, sb, b)]
    words_per_round = sb * sb + sb
    block = None
    t = 0

    for _ in range(rounds):
        if timer:
            t0 = _pc()
        batches_ids = source.peek_indices(s)
        source.advance(s)
        if timer:
            timer.add("sampling", _pc() - t0)
            t0 = _pc()
        if rowwise:
            ids = batches_ids[0] if s == 1 else [i for batch in batches_ids for i in batch]
            score_madds = 0
            for k, i in enumerate(ids):
                rc, rv = rows[i]
                rs[k] = np.dot(dr[i], x) if dr is not None else np.dot(rv, x[rc])
                score_madds += len(rv)
        else:
            ids = np.array(batches_ids, dtype=np.int64).reshape(sb)
            block = gather_rows(dataset, ids)
            rs, score_madds = batch_scores(dataset, ids, x, rows=block)
        if timer:
            timer.add("score_matvec", _pc() - t0)
            t0 = _pc()
        gram_madds = gram_lower_blocks(dataset, ids, b, out=G, rows=block)[1] if s > 1 else 0
        c.flops += score_madds + gram_madds
        if timer:
            timer.add("gram", _pc() - t0)
            t0 = _pc()
        # p = 1 allreduce is the identity; tree counters for the round payload.
        c.words_moved += words_per_round
        c.collectives += 1
        if timer:
            timer.add("collectives", _pc() - t0)
            t0 = _pc()

        for lo, g_j, w_head in recurrence:
            if b == 1:
                zj = rs[lo]
                if lo:
                    zj = zj + np.dot(g_j, w_head)
                w[lo] = _sig_scalar(zj) * eta_scale
            else:
                zj = rs[lo : lo + b].copy()
                if lo:
                    zj += g_j @ w_head
                wj = _sig_batch(zj)
                wj *= eta_scale
                w[lo : lo + b] = wj
        if timer:
            timer.add("sig", _pc() - t0)
            t0 = _pc()

        done = 0
        while done < s:
            stop = s if next_it is None or next_it >= t + s else max(next_it - t, done + 1)
            lo, hi = done * b, stop * b
            whole = hi - lo == sb
            add_rows_transpose(dataset, ids[lo:hi], w[lo:hi], x, rows=block if whole else None)
            span_nnz = score_madds if whole else int(A.row_nnz[ids[lo:hi]].sum())
            # Iteration i of the round adds i*b*b recurrence flops.
            c.flops += span_nnz + n * (stop - done) + b * b * (stop * (stop - 1) - done * (done - 1)) // 2
            c.sig_evals += b * (stop - done)
            done = stop
            if next_it is not None and next_it <= t + done:
                if timer:
                    timer.add("update", _pc() - t0)
                rec.visit(t + done, x_fn)
                next_it = rec.next_iteration
                if timer:
                    t0 = _pc()
        if timer:
            timer.add("update", _pc() - t0)
        t += s

    return SolverRun(x.copy(), rec.trace, c.snapshot(), rec.solutions)


def _casgd_column_multi(dataset, cfg, cluster, rounds, sched, source, timer):
    m, n = dataset.num_points, dataset.num_features
    s, b, p = cfg.s, cfg.b, cluster.p
    sb = s * b
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    rows = A.row_slices
    c = cluster.counters
    bounds = cluster.layout.boundaries
    xs = [np.zeros(stop - start) for start, stop in bounds]
    x_fn = lambda: np.concatenate(xs)
    rec = _Recorder(dataset, c, sched)
    rec.record(0, x_fn())
    next_it = rec.next_iteration
    bufs = [np.zeros(sb + sb * sb) for _ in range(p)]
    w_flat = np.empty(sb)
    t = 0

    for _ in range(rounds):
        if timer:
            t0 = _pc()
        batches_ids = source.peek_indices(s)
        source.advance(s)
        flat = [i for ids in batches_ids for i in ids]
        if timer:
            timer.add("sampling", _pc() - t0)
            t0 = _pc()
        score_madds = 0
        row_views = []
        for i in flat:
            rc, rv = rows[i]
            row_views.append((rc, rv))
            score_madds += len(rv)
        gram_madds = 0
        for rank, (start, stop) in enumerate(bounds):
            buf = bufs[rank]
            zr = buf[:sb]
            Gr = buf[sb:].reshape(sb, sb)
            xr = xs[rank]
            windows = []
            for rc, rv in row_views:
                wlo = int(np.searchsorted(rc, start))
                whi = int(np.searchsorted(rc, stop))
                windows.append((rc[wlo:whi] - start, rv[wlo:whi]))
            for q, (wc, wv) in enumerate(windows):
                zr[q] = np.dot(wv, xr[wc]) if len(wc) else 0.0
            for j in range(1, s):
                for k in range(b):
                    ac, av = windows[j * b + k]
                    for q in range(j * b):
                        bc, bv = windows[q]
                        val, hits = _matched_dot(ac, av, bc, bv)
                        Gr[j * b + k, q] = val
                        gram_madds += hits
        if timer:
            timer.add("gram", _pc() - t0)
            t0 = _pc()
        summed = cluster.allreduce_sum(bufs)
        if timer:
            timer.add("collectives", _pc() - t0)
        c.flops += score_madds + gram_madds
        rs = summed[:sb]
        G = summed[sb:].reshape(sb, sb)

        for j in range(1, s + 1):
            lo = (j - 1) * b
            ids = batches_ids[j - 1]
            if timer:
                t0 = _pc()
            zj = rs[lo : lo + b].copy()
            if lo:
                zj += G[lo : lo + b, :lo] @ w_flat[:lo]
                c.flops += lo * b
            wj = _sig_batch(zj)
            c.sig_evals += b
            if timer:
                timer.add("sig", _pc() - t0)
                t0 = _pc()
            wj *= eta_scale
            w_flat[lo : lo + b] = wj
            nnz_j = 0
            for k in range(b):
                rc, rv = rows[ids[k]]
                nnz_j += len(rv)
            for rank, (start, stop) in enumerate(bounds):
                xr = xs[rank]
                for k in range(b):
                    rc, rv = rows[ids[k]]
                    wlo = int(np.searchsorted(rc, start))
                    whi = int(np.searchsorted(rc, stop))
                    if whi > wlo:
                        xr[rc[wlo:whi] - start] += wj[k] * rv[wlo:whi]
            c.flops += nnz_j + n
            if timer:
                timer.add("update", _pc() - t0)
            t += 1
            if next_it is not None and next_it <= t:
                rec.visit(t, x_fn)
                next_it = rec.next_iteration

    return SolverRun(x_fn(), rec.trace, c.snapshot(), rec.solutions)


def _casgd_row(dataset, cfg, cluster, rounds, sched, source, timer):
    m, n = dataset.num_points, dataset.num_features
    s, b, p = cfg.s, cfg.b, cluster.p
    sb = s * b
    bp = b // p
    eta_scale = cfg.eta0 / m
    A = dataset.a_tilde
    rows = A.row_slices
    c = cluster.counters
    x = np.zeros(n)
    x_fn = lambda: x
    rec = _Recorder(dataset, c, sched)
    rec.record(0, x)
    next_it = rec.next_iteration
    w_flat = np.empty(sb)
    t = 0

    for _ in range(rounds):
        if timer:
            t0 = _pc()
        batches_ids = source.peek_indices(s)
        source.advance(s)
        if timer:
            timer.add("sampling", _pc() - t0)
            t0 = _pc()
        # Rank payload: values of its own rows for the first s-1 batches
        # (only those appear on the Gram's column side), then its complete
        # scores for all s batches.
        payloads = []
        y_lens = []
        score_madds = 0
        for rank in range(p):
            parts = []
            for j in range(s - 1):
                ids = batches_ids[j]
                for k in range(bp):
                    parts.append(rows[ids[rank * bp + k]][1])
            rvals = np.empty(s * bp)
            for j in range(s):
                ids = batches_ids[j]
                for k in range(bp):
                    rc, rv = rows[ids[rank * bp + k]]
                    rvals[j * bp + k] = np.dot(rv, x[rc])
                    score_madds += len(rv)
            parts.append(rvals)
            payload = np.concatenate(parts)
            y_lens.append(len(payload) - s * bp)
            payloads.append(payload)
        if timer:
            timer.add("score_matvec", _pc() - t0)
            t0 = _pc()
        gathered = cluster.allgather(payloads)
        if timer:
            timer.add("collectives", _pc() - t0)
            t0 = _pc()
        c.flops += score_madds
        r_full = np.empty((s, b))
        off = 0
        for rank in range(p):
            chunk = gathered[off + y_lens[rank] : off + y_lens[rank] + s * bp]
            r_full[:, rank * bp : (rank + 1) * bp] = chunk.reshape(s, bp)
            off += y_lens[rank] + s * bp
        if s > 1:
            flat = [i for ids in batches_ids for i in ids]
            G, gram_madds = gram_lower_blocks(dataset, flat, b)
            c.flops += gram_madds
        else:
            G = None
        if timer:
            timer.add("gram", _pc() - t0)

        gs = [np.zeros(n) for _ in range(p)]
        grad_madds = 0
        for j in range(1, s + 1):
            lo = (j - 1) * b
            if timer:
                t0 = _pc()
            zj = r_full[j - 1].copy()
            if lo:
                zj += G[lo : lo + b, :lo] @ w_flat[:lo]
                c.flops += lo * b
            if timer:
                timer.add("gram", _pc() - t0)
                t0 = _pc()
            # Chunked per rank, mirroring the plain-SGD row path bit for bit.
            vj = np.empty(b)
            for rank in range(p):
                vj[rank * bp : (rank + 1) * bp] = _sig_batch(zj[rank * bp : (rank + 1) * bp])
            c.sig_evals += b
            if timer:
                timer.add("sig", _pc() - t0)
                t0 = _pc()
            w_flat[lo : lo + b] = eta_scale * vj
            ids = batches_ids[j - 1]
            for rank in range(p):
                g = gs[rank]
                for k in range(bp):
                    rc, rv = rows[ids[rank * bp + k]]
                    g[rc] += vj[rank * bp + k] * rv
                    grad_madds += len(rv)
            if timer:
                timer.add("gradient", _pc() - t0)
            t += 1
        if timer:
            t0 = _pc()
        g = cluster.allreduce_sum(gs)
        if timer:
            timer.add("collectives", _pc() - t0)
            t0 = _pc()
        c.flops += grad_madds
        np.multiply(g, eta_scale, out=g)
        x += g
        c.flops += n
        if timer:
            timer.add("update", _pc() - t0)
        if next_it is not None and next_it <= t:
            rec.visit(t, x_fn)
            next_it = rec.next_iteration

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
            rec.visit(t, lambda: x)
    return SolverRun(x.copy(), rec.trace, counters, rec.solutions)
