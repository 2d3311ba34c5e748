"""Oracles the tests compare the library against, kept apart from it.

Each is a plain, row-by-row or textbook form of what the library computes
faster, or a view the library has no use for:

  * ``RowBlockSelector`` and the sampled-row kernels ``sampled_matvec``,
    ``sampled_matvec_transpose`` and ``gram_block``, which go row by row;
    ``gram_block`` merges two rows' sorted column indices and sums the
    products in ascending column order, so ``gram_block(s1, s2)`` is
    exactly the transpose of ``gram_block(s2, s1)``;
  * ``run_reference``, textbook single-rank SGD over an explicit batch
    sequence, through the sampled-row kernels and no cluster;
  * ``full_gradient`` and its central-difference check
    ``finite_difference_gradient``;
  * ``csr_from_dense``, and a cluster's per-rank views (``rank_range``,
    ``rank_view``) and the matrix ``reassemble`` rebuilds from them;
  * the row layout's per-block kernels before ``RowBlock`` replaced them.
    ``rank_entries`` keyed a block's entries for the gradient scatter rank
    after rank, ``column_support`` sorted each round's distinct columns, and
    ``gram_pairs`` is the sparse Gram's pairing over ``_column_runs``, which
    paired every entry, singletons included, after one sort by (round,
    column).  Each gathered and sorted the block's entries on its own,
    through ``_ranges``, an index of every entry; ``entry_gather`` reads
    rows that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from casgd.cluster import BLOCK_COLUMN, BLOCK_ROW, CostCounters, VirtualCluster
from casgd.model import _scores, loss, sig
from casgd.solvers import SolverConfig, SolverRun, _Recorder, epoch_schedule
from casgd.sparse import _SUPPORT_MIN_RATIO, CsrMatrix, LabeledDataset


def csr_from_dense(dense) -> CsrMatrix:
    """The matrix of ``dense``'s nonzero entries."""
    dense = np.asarray(dense, dtype=np.float64)
    offsets = [0]
    cols: list[int] = []
    vals: list[float] = []
    for i in range(dense.shape[0]):
        nz = np.nonzero(dense[i])[0]
        cols.extend(int(j) for j in nz)
        vals.extend(float(v) for v in dense[i, nz])
        offsets.append(len(vals))
    return CsrMatrix(dense.shape[0], dense.shape[1], np.array(offsets), np.array(cols), np.array(vals))


# ---------------------------------------------------------------------------
# Sampled-row kernels


@dataclass(frozen=True)
class RowBlockSelector:
    """Sampled row ids defining an implicit b-by-m row-selection matrix."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise ValueError("selector indices must be one-dimensional")
        if len(idx) and idx.min() < 0:
            raise ValueError("selector indices must be non-negative")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("selector indices must be pairwise distinct")
        idx.setflags(write=False)

    def __len__(self) -> int:
        return len(self.indices)


def _check_selector(sel: RowBlockSelector, num_rows: int) -> np.ndarray:
    idx = sel.indices
    if len(idx) and idx.max() >= num_rows:
        raise IndexError(f"selector index {int(idx.max())} out of range for {num_rows} rows")
    return idx


def sampled_matvec(dataset: LabeledDataset, sel: RowBlockSelector, x: np.ndarray) -> np.ndarray:
    """Scores of the sampled rows against ``x``."""
    A = dataset.a_tilde
    idx = _check_selector(sel, A.num_rows)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.num_cols,):
        raise ValueError(f"x must have length {A.num_cols}")
    out = np.empty(len(idx))
    for k, i in enumerate(idx):
        cols, vals = A.row(i)
        out[k] = np.dot(vals, x[cols])
    return out


def sampled_matvec_transpose(dataset: LabeledDataset, sel: RowBlockSelector, v: np.ndarray) -> np.ndarray:
    """Weighted sum of the sampled rows: sum_k v[k] * row(sel[k]).

    Returns a dense vector of length ``num_features``.  Rows are
    accumulated in selector order.
    """
    A = dataset.a_tilde
    idx = _check_selector(sel, A.num_rows)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (len(idx),):
        raise ValueError(f"v must have length {len(idx)}")
    out = np.zeros(A.num_cols)
    for k, i in enumerate(idx):
        cols, vals = A.row(i)
        out[cols] += v[k] * vals
    return out


def _matched_dot(
    cols_a: np.ndarray,
    vals_a: np.ndarray,
    cols_b: np.ndarray,
    vals_b: np.ndarray,
) -> float:
    """Merge of two sorted index lists; product sum in ascending column order."""
    if not len(cols_a) or not len(cols_b):
        return 0.0
    pos = np.searchsorted(cols_a, cols_b)
    ok = pos < len(cols_a)
    ok[ok] = cols_a[pos[ok]] == cols_b[ok]
    # One addition at a time from +0.0, as a CSR product sums (np.dot's
    # BLAS may split the sum).
    total = 0.0
    for product in (vals_a[pos[ok]] * vals_b[ok]).tolist():
        total += product
    return total


def gram_block(dataset: LabeledDataset, sel_row: RowBlockSelector, sel_col: RowBlockSelector) -> np.ndarray:
    """Pairwise inner products between two sampled row batches.

    ``out[k, l]`` is the inner product of row ``sel_row[k]`` and row
    ``sel_col[l]``, computed as a sparse merge of the two rows' sorted
    column indices.
    """
    A = dataset.a_tilde
    rows = _check_selector(sel_row, A.num_rows)
    cols_sel = _check_selector(sel_col, A.num_rows)
    out = np.empty((len(rows), len(cols_sel)))
    for k, i in enumerate(rows):
        ci, vi = A.row(i)
        for l, j in enumerate(cols_sel):
            out[k, l] = _matched_dot(ci, vi, *A.row(j))
    return out


# ---------------------------------------------------------------------------
# Sequential SGD and the full gradient


def run_reference(
    dataset: LabeledDataset,
    cfg: SolverConfig,
    forced_batches: Sequence[RowBlockSelector],
) -> SolverRun:
    """Single-rank textbook SGD loop over an explicit batch sequence.

    Uses the sampled-row kernels directly and touches no cluster, so it
    serves as an independent oracle for the simulated runs.
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


def full_gradient(dataset: LabeledDataset, x: np.ndarray) -> np.ndarray:
    """Analytic gradient ``-(1/m) a_tilde^T sig(a_tilde x)``."""
    v = sig(_scores(dataset, x))
    return (-1.0 / dataset.num_points) * dataset.a_tilde.scipy_csr.T.dot(v)


def finite_difference_gradient(dataset: LabeledDataset, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``loss``; oracle for ``full_gradient``."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (loss(dataset, xp) - loss(dataset, xm)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# Per-rank views of a cluster


def rank_range(cluster: VirtualCluster, rank: int) -> tuple[int, int]:
    """The rank's [start, stop) of columns (block column) or rows (block row)."""
    return cluster.layout.boundaries[rank]


def rank_view(cluster: VirtualCluster, rank: int) -> CsrMatrix:
    """The rank's slice of the scaled matrix, locally indexed."""
    if cluster.layout.kind == BLOCK_COLUMN:
        return cluster.column_slices[rank].a_tilde
    A = cluster.dataset.a_tilde
    start, stop = rank_range(cluster, rank)
    offsets = A.row_offsets[start : stop + 1]
    lo, hi = offsets[0], offsets[-1]
    return CsrMatrix(stop - start, A.num_cols, offsets - lo, A.col_indices[lo:hi], A.values[lo:hi])


def reassemble(cluster: VirtualCluster) -> CsrMatrix:
    """Rebuild the full matrix from rank views; must equal the original exactly."""
    views = [rank_view(cluster, r) for r in range(cluster.p)]
    A = cluster.dataset.a_tilde
    if cluster.layout.kind == BLOCK_ROW:
        offsets = [0]
        cols = []
        vals = []
        for view in views:
            for i in range(view.num_rows):
                c, v = view.row(i)
                cols.append(c)
                vals.append(v)
                offsets.append(offsets[-1] + len(c))
        return CsrMatrix(
            A.num_rows,
            A.num_cols,
            np.array(offsets),
            np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
            np.concatenate(vals) if vals else np.empty(0),
        )
    offsets = [0]
    cols = []
    vals = []
    for i in range(A.num_rows):
        row_len = 0
        for rank, view in enumerate(views):
            start, _ = rank_range(cluster, rank)
            c, v = view.row(i)
            cols.append(c + start)
            vals.append(v)
            row_len += len(c)
        offsets.append(offsets[-1] + row_len)
    return CsrMatrix(
        A.num_rows,
        A.num_cols,
        np.array(offsets),
        np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
        np.concatenate(vals) if vals else np.empty(0),
    )


# ---------------------------------------------------------------------------
# The row layout's per-block kernels before ``RowBlock``


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each pair, concatenated in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def entry_gather(A: CsrMatrix, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_gather``'s arrays for rows ``flat``, each entry read through its own
    offset: where each row's entries start, their columns, values and rows."""
    counts = A.row_nnz[flat]
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    entries = _ranges(A.row_offsets[flat], counts)
    return starts, A.col_indices[entries], A.values[entries], np.repeat(np.arange(len(flat)), counts)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``a`` that differ from their left neighbour."""
    starts = np.empty(len(a), dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def column_support(dataset: LabeledDataset, row_ids, ratio: float = _SUPPORT_MIN_RATIO) -> list[np.ndarray | None]:
    """Each round's sorted distinct columns, or None for a round whose rows
    hold more than n / ``ratio`` nonzeros."""
    A = dataset.a_tilde
    ids = np.asarray(row_ids, dtype=np.int64)
    n = A.num_cols
    counts = A.row_nnz[ids]
    small = (counts.sum(axis=1) * ratio <= n).tolist()
    if not any(small):
        return [None] * len(ids)
    kept, counts = ids[small].ravel(), counts[small].ravel()
    keys = A.col_indices[_ranges(A.row_offsets[kept], counts)]
    keys += np.repeat(np.arange(len(kept)) // ids.shape[-1] * n, counts)
    keys.sort()
    keys = keys[_run_starts(keys)]
    supports = iter(np.split(keys % n, np.searchsorted(keys, np.arange(1, sum(small)) * n)))
    return [next(supports) if keep else None for keep in small]


def rank_entries(dataset: LabeledDataset, row_ids, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys ``rank * n + column``, values and per-row counts of rows listed
    rank after rank, ``width`` rows per rank, in the order of ``row_ids.ravel()``."""
    A = dataset.a_tilde
    ids = np.asarray(row_ids, dtype=np.int64)
    counts = A.row_nnz[ids]
    flat = counts.ravel()
    entries = _ranges(A.row_offsets[ids.ravel()], flat)
    keys = A.col_indices[entries] + np.repeat(np.arange(ids.size) % ids.shape[-1] // width * A.num_cols, flat)
    return keys, A.values[entries], counts


def _column_runs(A: CsrMatrix, ids: np.ndarray, b: int):
    """The rounds' entries sorted by (round, column, position): per sorted
    entry its value, its row's position in ``ids.ravel()``, where its run
    starts and how many entries of the run are in earlier batches."""
    sb = ids.shape[-1]
    flat = ids.ravel()
    counts = A.row_nnz[flat]
    entries = _ranges(A.row_offsets[flat], counts)
    nnz = len(entries)
    index = np.arange(nnz)
    at = np.repeat(np.arange(len(flat)), counts)
    keys = (A.col_indices[entries] + at // sb * A.num_cols) * nnz + index
    keys.sort()
    cols, order = np.divmod(keys, nnz)
    pos = at[order]
    col_starts = _run_starts(cols)
    first = np.maximum.accumulate(np.where(col_starts, index, 0))
    batch_first = np.maximum.accumulate(np.where(_run_starts(pos // b) | col_starts, index, 0))
    return A.values[entries[order]], pos, first, batch_first - first


def gram_pairs(dataset: LabeledDataset, row_ids, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The sparse Gram's lower blocks and match counts of K rounds ((K, s*b) ids),
    added pair by pair into zeroed buffers in the order the kernel adds them."""
    ids = np.asarray(row_ids, dtype=np.int64)
    K, sb = ids.shape
    out = np.zeros((K, sb, sb))
    vals, pos, first, earlier = _column_runs(dataset.a_tilde, ids, b)
    later = np.repeat(np.arange(len(vals)), earlier)
    partner = _ranges(first, earlier)
    at = pos[later]
    np.add.at(out.reshape(-1), at * sb + pos[partner] % sb, vals[later] * vals[partner])
    return out, np.bincount(at // sb, minlength=K)
