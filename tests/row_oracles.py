"""The row layout's per-block kernels before ``RowBlock`` replaced them, kept as oracles.

``rank_entries`` keyed a block's entries for the gradient scatter rank
after rank, ``column_support`` sorted each round's distinct columns, and
``gram_pairs`` is the sparse Gram's pairing over ``_column_runs``, which
paired every entry, singletons included, after one sort by (round, column).
Each gathered and sorted the block's entries on its own, through
``_ranges``, an index of every entry; ``entry_gather`` reads rows that way.
"""

from __future__ import annotations

import numpy as np

from casgd.sparse import _SUPPORT_MIN_RATIO, CsrMatrix, LabeledDataset


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
