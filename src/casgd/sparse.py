"""CSR storage, LIBSVM ingestion, and sampled-row sparse kernels.

The data matrix is stored label-scaled: row i of ``a_tilde`` is the i-th
input row multiplied by its label in {-1, +1}.  Column indices are 0-based
internally; the 1-based LIBSVM indices are shifted on ingest.

Two kinds of kernels work on sampled rows:

  * reference kernels (``sampled_matvec``, ``sampled_matvec_transpose``,
    ``gram_block``) take a ``RowBlockSelector`` and go row by row; the
    sequential oracle and the tests use them.
  * round kernels (``batch_scores``, ``gram_lower_blocks``,
    ``add_rows_transpose``) compute a solver round's scores, Gram blocks
    and update from one form of the round's rows, which ``gather_rows``
    picks: a list of row ids (row by row), dense rows or CSR rows.
    ``gather_rows`` and ``gram_lower_blocks`` also take a block of K rounds
    at once.  The Gram takes one BLAS product of dense rows when the matrix
    keeps a dense cache, and otherwise pairs the block's entries after one
    sort by (round, column).  A column-partitioned rank runs the kernels on
    its ``CsrMatrix.column_window``.

Pairwise row inner products match entries of the two rows' sorted column
indices and sum the products in ascending column order, which keeps
results reproducible and makes ``gram_block(s1, s2)`` exactly the
transpose of ``gram_block(s2, s1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence, TextIO

import numpy as np
import scipy.sparse

__all__ = [
    "CsrMatrix",
    "LabeledDataset",
    "RowBlockSelector",
    "LibsvmParseError",
    "parse_libsvm",
    "serialize_libsvm",
    "sampled_matvec",
    "sampled_matvec_transpose",
    "gram_block",
    "gather_rows",
    "column_support",
    "batch_scores",
    "gram_lower_blocks",
    "add_rows_transpose",
]

# Without a dense row cache, ``gather_rows`` leaves fewer rows than this to
# go row by row (per-row dots and per-row updates), and ``_row_columns``
# joins their slices; from it on rows are gathered as CSR rows for scipy
# products, and columns in one vectorized pass, despite their call overhead.
_VECTORIZE_MIN_ROWS = 33

# ``column_support`` gives a round's distinct columns when n is at least this
# many times the round's nonzeros, and None (use all n) otherwise.  One
# row-layout round at p = 4 (accumulate, reduce, update), over the support
# against over all n, in us: n = 20000, 20 nonzeros per row, n/nnz = 62: 102
# vs 167; 31: 167 vs 213; 21: 240 vs 266; 16: 308 vs 318; 10: 430 vs 324.
# n = 3000, 5 per row, n/nnz = 38: 72 vs 81; 19: 160 vs 142; 12: 136 vs 119.
_SUPPORT_MIN_RATIO = 24

# Matrices up to this many cells keep a dense row cache so round kernels can
# run BLAS products on gathered rows; beyond it only the sparse paths apply.
_DENSE_CACHE_MAX_CELLS = 2_000_000


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _RowsOnAccess:
    """``row_slices`` that slices row i from the CSR arrays when indexed."""

    __slots__ = ("_offsets", "_cols", "_vals")

    def __init__(self, A: "CsrMatrix"):
        self._offsets, self._cols, self._vals = A.row_offsets, A.col_indices, A.values

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i):
        lo, hi = self._offsets[i], self._offsets[i + 1]
        return self._cols[lo:hi], self._vals[lo:hi]


@dataclass(frozen=True)
class CsrMatrix:
    """Immutable sparse matrix in compressed-sparse-row form."""

    num_rows: int
    num_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ro = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        ci = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        va = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "row_offsets", ro)
        object.__setattr__(self, "col_indices", ci)
        object.__setattr__(self, "values", va)

        if self.num_rows < 0 or self.num_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if ro.shape != (self.num_rows + 1,):
            raise ValueError("row_offsets must have length num_rows + 1")
        if ro[0] != 0:
            raise ValueError("row_offsets[0] must be 0")
        if np.any(np.diff(ro) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(ci) != len(va) or ro[-1] != len(va):
            raise ValueError("row_offsets[-1] must equal len(col_indices) == len(values)")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.num_cols):
            raise ValueError("column indices out of range")
        # Strictly increasing columns within each row (duplicates forbidden).
        if len(ci) > 1:
            increasing = np.diff(ci) > 0
            starts = ro[1:-1]
            starts = starts[(starts > 0) & (starts < len(ci))]
            increasing[starts - 1] = True
            if not increasing.all():
                raise ValueError("column indices must be strictly increasing within each row")

        for arr in (ro, ci, va):
            arr.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @cached_property
    def scipy_csr(self) -> scipy.sparse.csr_matrix:
        """scipy handle sharing this matrix's arrays; used for full-matrix products."""
        return scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.num_rows, self.num_cols),
        )

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    @cached_property
    def row_nnz(self) -> np.ndarray:
        """Stored entries per row."""
        counts = np.diff(self.row_offsets)
        counts.setflags(write=False)
        return counts

    @cached_property
    def row_slices(self) -> Sequence[tuple[np.ndarray, np.ndarray]]:
        """Per-row (col_indices, values) views; avoids re-slicing in hot loops.

        Column windows slice their rows on access instead (see
        ``column_window``).
        """
        return tuple(self.row(i) for i in range(self.num_rows))

    @cached_property
    def _dense(self) -> np.ndarray | None:
        if self.num_rows * self.num_cols > _DENSE_CACHE_MAX_CELLS:
            return None
        rows = self.to_dense()
        rows.setflags(write=False)
        return rows

    def dense_cache(self) -> np.ndarray | None:
        """Dense row array for small matrices, else None.

        Dense dots over padded zeros produce the same sums as the sparse
        merges (adding 0.0 is exact), so solver fast paths may use them.
        """
        return self._dense

    def column_window(self, start: int, stop: int) -> "CsrMatrix":
        """Columns ``[start, stop)`` of every row, locally indexed.

        The window's dense cache is the same window of this matrix's cache
        (a view, or None when this matrix keeps none), so windows add no
        dense memory and take the same kernel paths as the whole matrix.
        Its ``row_slices`` slice each row from the CSR arrays on access, so
        the windows of a partition keep no per-row objects either.
        """
        ci = self.col_indices
        keep = (ci >= start) & (ci < stop)
        kept = np.concatenate(([0], np.cumsum(keep)))
        window = CsrMatrix(self.num_rows, stop - start, kept[self.row_offsets], ci[keep] - start, self.values[keep])
        dense = self.dense_cache()
        # Fills the cached properties before their first use.
        vars(window)["_dense"] = None if dense is None else dense[:, start:stop]
        vars(window)["row_slices"] = _RowsOnAccess(window)
        return window

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.num_rows, self.num_cols))
        for i in range(self.num_rows):
            cols, vals = self.row(i)
            out[i, cols] = vals
        return out

    @classmethod
    def from_dense(cls, dense) -> "CsrMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        offsets = [0]
        cols: list[int] = []
        vals: list[float] = []
        for i in range(dense.shape[0]):
            nz = np.nonzero(dense[i])[0]
            cols.extend(int(j) for j in nz)
            vals.extend(float(v) for v in dense[i, nz])
            offsets.append(len(vals))
        return cls(dense.shape[0], dense.shape[1], np.array(offsets), np.array(cols), np.array(vals))


@dataclass(frozen=True)
class LabeledDataset:
    """Label-scaled data matrix plus the labels it was scaled by."""

    a_tilde: CsrMatrix
    labels: np.ndarray
    num_points: int
    num_features: int
    nnz: int
    density: float

    @classmethod
    def build(cls, a_tilde: CsrMatrix, labels) -> "LabeledDataset":
        y = np.ascontiguousarray(labels, dtype=np.float64)
        if y.shape != (a_tilde.num_rows,):
            raise ValueError("labels length must equal the number of rows")
        if len(y) and not np.all(np.abs(y) == 1.0):
            raise ValueError("every label must be exactly -1.0 or +1.0")
        y.setflags(write=False)
        m, n = a_tilde.num_rows, a_tilde.num_cols
        nnz = a_tilde.nnz
        density = nnz / (m * n) if m and n else 0.0
        return cls(a_tilde, y, m, n, nnz, density)


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


# ---------------------------------------------------------------------------
# LIBSVM text format


def _resolve_policy(policy: str, raw_labels: list[tuple[int, float]]) -> str:
    if policy in ("plus_minus", "zero_one"):
        return policy
    if policy != "auto":
        raise ValueError(f"unknown label policy {policy!r}")
    seen = {lab for _, lab in raw_labels}
    if seen <= {-1.0, 1.0}:
        return "plus_minus"
    if seen <= {0.0, 1.0}:
        return "zero_one"
    bad = sorted(seen - {-1.0, 0.0, 1.0})
    raise ValueError(f"cannot infer label policy: labels {bad or sorted(seen)} present")


def parse_libsvm(
    source: str | TextIO | Iterable[str],
    label_policy: str = "auto",
    num_features: int | None = None,
) -> LabeledDataset:
    """Parse LIBSVM text (``<label> <idx>:<val> ...``, 1-based indices).

    ``label_policy`` is ``"plus_minus"`` (labels already in {-1,+1}),
    ``"zero_one"`` (0 maps to -1, 1 to +1) or ``"auto"`` to pick whichever
    fits the file.  ``num_features`` may force a column count larger than
    the maximum index seen (files underreport trailing all-zero features).
    The stored matrix is pre-scaled by the mapped labels.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    raw_labels: list[tuple[int, float]] = []
    row_cols: list[np.ndarray] = []
    row_vals: list[np.ndarray] = []
    max_col = 0

    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        tokens = text.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(line_no, f"bad label token {tokens[0]!r}") from None
        cols: list[int] = []
        vals: list[float] = []
        prev = 0
        for token in tokens[1:]:
            idx_s, sep, val_s = token.partition(":")
            if not sep:
                raise LibsvmParseError(line_no, f"expected idx:val, got {token!r}")
            try:
                idx = int(idx_s)
            except ValueError:
                raise LibsvmParseError(line_no, f"bad feature index {idx_s!r}") from None
            if idx < 1:
                raise LibsvmParseError(line_no, f"feature index {idx} must be >= 1")
            if idx <= prev:
                raise LibsvmParseError(line_no, f"feature indices must be strictly increasing (index {idx} after {prev})")
            try:
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(line_no, f"bad feature value {val_s!r}") from None
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
        if cols:
            max_col = max(max_col, cols[-1] + 1)
        raw_labels.append((line_no, label))
        row_cols.append(np.array(cols, dtype=np.int64))
        row_vals.append(np.array(vals, dtype=np.float64))

    if not raw_labels:
        raise LibsvmParseError(0, "no data lines found")

    policy = _resolve_policy(label_policy, raw_labels)
    labels = np.empty(len(raw_labels))
    for i, (line_no, lab) in enumerate(raw_labels):
        if policy == "plus_minus":
            if lab not in (-1.0, 1.0):
                raise LibsvmParseError(line_no, f"label {lab} not in {{-1, +1}}")
            labels[i] = lab
        else:
            if lab not in (0.0, 1.0):
                raise LibsvmParseError(line_no, f"label {lab} not in {{0, 1}}")
            labels[i] = 1.0 if lab == 1.0 else -1.0

    n = max_col
    if num_features is not None:
        if num_features < max_col:
            raise ValueError(f"num_features={num_features} smaller than max index seen ({max_col})")
        n = num_features
    if n == 0:
        raise LibsvmParseError(0, "no features found")

    m = len(raw_labels)
    offsets = np.zeros(m + 1, dtype=np.int64)
    for i, cols in enumerate(row_cols):
        offsets[i + 1] = offsets[i] + len(cols)
    col_indices = np.concatenate(row_cols) if m else np.empty(0, dtype=np.int64)
    values = np.concatenate([v * labels[i] for i, v in enumerate(row_vals)]) if m else np.empty(0)
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values)))
        row = int(np.searchsorted(offsets, bad, side="right")) - 1
        line_no = raw_labels[row][0]
        raise LibsvmParseError(line_no, f"non-finite feature value {values[bad] * labels[row]!r}")
    matrix = CsrMatrix(m, n, offsets, col_indices, values)
    return LabeledDataset.build(matrix, labels)


def serialize_libsvm(dataset: LabeledDataset) -> str:
    """Emit canonical LIBSVM text (labels +1/-1, 1-based indices, 17-digit values).

    Values are unscaled back to the raw matrix, so parse(serialize(d))
    reproduces ``d`` exactly.
    """
    out = []
    A = dataset.a_tilde
    for i in range(dataset.num_points):
        y = dataset.labels[i]
        cols, vals = A.row(i)
        parts = ["+1" if y > 0 else "-1"]
        parts.extend(f"{c + 1}:{format(v * y, '.17g')}" for c, v in zip(cols, vals))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Sampled-row kernels


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
# Round kernels used by the solvers


def gather_rows(dataset: LabeledDataset, row_ids, batches: int):
    """A round's rows in the one form its kernels share.

    ``row_ids`` are the rows a kernel is handed (a rank's part of the round)
    and ``batches`` how many batches they span.  The form is:

      * a list of the row ids, which the kernels take row by row, for one
        batch (s = 1 then mirrors plain SGD operation for operation) and,
        without a dense cache, for fewer than ``_VECTORIZE_MIN_ROWS`` rows;
      * dense rows (an ndarray) when the matrix, or the column window, keeps
        a dense cache;
      * CSR rows (a scipy matrix) otherwise.

    Dense and CSR rows support ``@ x`` and ``.T @ w``; dense rows ``@ rows.T``.
    ``row_ids`` may also be a (K, s*b) array of K rounds; indexing the
    result by round gives each round's form.  Dense rows are gathered in
    one call, as a (K, s*b, n) array; other forms round by round.
    """
    if batches > 1:
        A = dataset.a_tilde
        dense = A.dense_cache()
        if dense is not None:
            return dense[row_ids]
        if np.ndim(row_ids) > 1:
            return [gather_rows(dataset, ids, batches) for ids in row_ids]
        if len(row_ids) >= _VECTORIZE_MIN_ROWS:
            return A.scipy_csr[row_ids]
    return row_ids if isinstance(row_ids, list) else row_ids.tolist()


def batch_scores(dataset: LabeledDataset, row_ids, x: np.ndarray, rows=None, out=None) -> np.ndarray:
    """Scores of ``row_ids`` against full-length ``x``.

    ``rows`` is ``gather_rows``' form of ``row_ids`` (None: row by row).
    Scores are written into ``out`` when given.  Their multiply-adds are
    the rows' stored entries, ``row_nnz``, which the caller counts.
    """
    if out is None:
        out = np.empty(len(row_ids))
    if isinstance(rows, list) or rows is None:
        A = dataset.a_tilde
        slices, dense = A.row_slices, A.dense_cache()
        for k, i in enumerate(row_ids if rows is None else rows):
            cols, vals = slices[i]
            # ndarray.dot is np.dot without its dispatch overhead.
            out[k] = vals.dot(x[cols]) if dense is None else dense[i].dot(x)
        return out
    out[:] = rows @ x
    return out


def gram_lower_blocks(
    dataset: LabeledDataset,
    row_ids,
    block_size: int,
    out: np.ndarray | None = None,
    rows=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Strictly-lower b-by-b blocks of the sampled-row Gram matrix of each round.

    ``row_ids`` holds s consecutive batches of ``block_size`` rows, or K
    rounds of them, one per row of a (K, s*b) array; ``out`` then has the
    shape (s*b, s*b) or (K, s*b, s*b).  In each round, block (j, i) with
    i < j is filled with inner products between batch j rows and batch i
    rows.  Diagonal and upper blocks are left untouched (zero when ``out``
    is freshly allocated; ``out`` must be C-contiguous).  ``rows`` is
    ``gather_rows``' form of ``row_ids``; only dense rows are used (None:
    gathered here when the matrix keeps a dense cache).

    Returns the blocks and each round's index matches (sparse multiply-adds),
    counted exactly from the rows' column indices: an int64 array of the
    shape of ``row_ids`` without its last axis.
    """
    row_ids = np.asarray(row_ids)
    sb = row_ids.shape[-1]
    b = block_size
    if sb % b:
        raise ValueError("len(row_ids) must be a multiple of block_size")
    if out is None:
        out = np.zeros(row_ids.shape[:-1] + (sb, sb))
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    A = dataset.a_tilde
    dense = A.dense_cache()
    if dense is not None:
        if rows is None:
            rows = dense[row_ids]
        np.copyto(out, np.matmul(rows, rows.swapaxes(-1, -2)), where=_block_tril_mask(sb, b))
        return out, _lower_block_matches(A, row_ids, b)
    # Every pair of entries of one round that share a column, the later one
    # in a later batch, adds its product to G[later, earlier].  Pairs come
    # in ascending column order, so each entry sums from +0.0 in that order.
    for lo in range(b, sb, b):
        out[..., lo : lo + b, :lo] = 0.0
    vals, pos, first, earlier = _column_runs(A, row_ids, b)
    later = np.repeat(np.arange(len(vals)), earlier)
    partner = _ranges(first, earlier)
    at = pos[later]
    np.add.at(out.reshape(-1), at * sb + pos[partner] % sb, vals[later] * vals[partner])
    return out, np.bincount(at // sb, minlength=row_ids.size // sb).reshape(row_ids.shape[:-1])


def add_rows_transpose(dataset: LabeledDataset, row_ids, w: np.ndarray, x: np.ndarray, rows=None) -> None:
    """``x += A[row_ids]^T w`` in place, for full-length ``x``.

    ``rows`` is ``gather_rows``' form of ``row_ids`` (None: row by row).
    Dense rows take one BLAS product.  Otherwise only the rows' own
    columns are touched, row after row (CSR rows in one unbuffered
    scatter-add), which gives the same bits as updating row by row.
    """
    if isinstance(rows, list) or rows is None:
        slices = dataset.a_tilde.row_slices
        for k, i in enumerate(row_ids if rows is None else rows):
            cols, vals = slices[i]
            x[cols] += w[k] * vals
    elif isinstance(rows, np.ndarray):
        x += rows.T @ w
    else:
        np.add.at(x, rows.indices, rows.data * np.repeat(w, np.diff(rows.indptr)))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each pair, concatenated in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _row_columns(A: CsrMatrix, ids: np.ndarray) -> np.ndarray:
    """The column indices of rows ``ids``, row after row.

    Fewer than ``_VECTORIZE_MIN_ROWS`` rows are joined from their slices,
    more are taken in one vectorized gather.
    """
    if not len(ids):
        return np.empty(0, dtype=np.int64)
    if len(ids) < _VECTORIZE_MIN_ROWS:
        slices = A.row_slices
        return np.concatenate([slices[i][0] for i in ids])
    return A.col_indices[_ranges(A.row_offsets[ids], A.row_nnz[ids])]


def column_support(dataset: LabeledDataset, row_ids, rows=None) -> np.ndarray | None:
    """Sorted distinct columns of the rows ``row_ids``, or None when they are dense.

    ``rows`` is ``gather_rows``' form of the rows (None: row by row).  None
    is returned for dense rows, whose products write every column, and
    when the rows hold more than n / ``_SUPPORT_MIN_RATIO`` nonzeros, where
    a pass over all n columns is cheaper than one over the support.
    """
    A = dataset.a_tilde
    if isinstance(rows, np.ndarray) or int(A.row_nnz[row_ids].sum()) * _SUPPORT_MIN_RATIO > A.num_cols:
        return None
    cols = np.sort(_row_columns(A, row_ids))
    return cols[_run_starts(cols)]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``a`` that differ from their left neighbour."""
    starts = np.empty(len(a), dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _column_runs(A: CsrMatrix, ids: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the rounds of ``ids`` (one round, or one per row of a
    (K, s*b) array), sorted once by (round, column, position in the round).

    Per sorted entry: its value, its row's position in ``ids.ravel()``,
    where its round's run of its column starts, and how many entries of
    that run are in earlier batches of ``b`` rows (they lead the run).
    """
    sb = ids.shape[-1]
    flat = ids.ravel()
    counts = A.row_nnz[flat]
    entries = _ranges(A.row_offsets[flat], counts)
    nnz = len(entries)
    index = np.arange(nnz)
    at = np.repeat(np.arange(len(flat)), counts)
    # Each round's columns take their own range of keys.
    keys = (A.col_indices[entries] + at // sb * A.num_cols) * nnz + index
    keys.sort()
    cols, order = np.divmod(keys, nnz)
    pos = at[order]
    col_starts = _run_starts(cols)
    first = np.maximum.accumulate(np.where(col_starts, index, 0))
    batch_first = np.maximum.accumulate(np.where(_run_starts(pos // b) | col_starts, index, 0))
    return A.values[entries[order]], pos, first, batch_first - first


def _lower_block_matches(A: CsrMatrix, ids: np.ndarray, b: int) -> np.ndarray:
    """Index matches over the strictly-lower blocks of each round in ``ids``.

    ``ids`` is one round of s*b row ids, or K rounds as a (K, s*b) array;
    the result has the shape of ``ids`` without its last axis.  With T the
    number of a round's batch-j rows that hold column c, the round matches

        (sum_c (sum_j T)^2 - sum_c sum_j T^2) / 2

    times: every pair of the column's entries, less the pairs within one
    batch.  One ``bincount`` over (round, batch, column) keys gives every T.
    The pattern is the CSR one, so stored zeros match.  Exact integer
    arithmetic throughout.
    """
    n = A.num_cols
    counts = A.row_nnz[ids]
    cols = A.col_indices[_ranges(A.row_offsets[ids].ravel(), counts.ravel())]
    # A batch of one row holds each of its columns once: at b = 1 every T
    # is 0 or 1, sum_c sum_j T^2 is the round's nonzeros, and the keys need
    # no batch (s times fewer bins).
    group = ids.shape[-1] if b == 1 else b
    keys = np.repeat(np.arange(ids.size) // group * n, counts.ravel()) + cols
    T = np.bincount(keys, minlength=ids.size // group * n).reshape(ids.shape[:-1] + (ids.shape[-1] // group, n))
    per_column = T.sum(axis=-2)
    within = counts.sum(axis=-1) if b == 1 else np.einsum("...jc,...jc", T, T)
    return (np.einsum("...c,...c", per_column, per_column) - within) // 2


@lru_cache(maxsize=8)
def _block_tril_mask(sb: int, b: int) -> np.ndarray:
    """Mask of the strictly-lower b-by-b blocks of an sb-by-sb matrix (built once per shape)."""
    blocks = np.arange(sb) // b
    mask = blocks[:, None] > blocks[None, :]
    mask.setflags(write=False)
    return mask
