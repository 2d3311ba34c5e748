"""CSR storage, LIBSVM ingestion, and sampled-row sparse kernels.

The data matrix is stored label-scaled: row i of ``a_tilde`` is the i-th
input row multiplied by its label in {-1, +1}.  All kernels operate on
sampled row subsets without materializing row copies, and optionally
restrict work to a contiguous column window so a column-partitioned rank
can compute its partial product (partials over a disjoint window
partition sum to the full-range result).

Column indices are 0-based internally; the 1-based LIBSVM indices are
shifted on ingest.  Pairwise row inner products match entries of the two
rows' sorted column indices and sum the products in ascending column
order, which keeps results reproducible and makes
``gram_block(s1, s2)`` exactly the transpose of ``gram_block(s2, s1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO

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
    "batch_scores",
    "gram_lower_blocks",
    "add_rows_transpose",
]

# Without a dense row cache, rounds of fewer rows than this use per-row
# dots, per-pair merges and per-row updates; from it on they gather the rows
# once and use scipy.sparse products despite their call overhead.
_VECTORIZE_MIN_ROWS = 33

# Matrices up to this many cells keep a dense row cache so round kernels can
# run BLAS products on gathered rows; beyond it only the sparse paths apply.
_DENSE_CACHE_MAX_CELLS = 2_000_000


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
    def row_slices(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-row (col_indices, values) views; avoids re-slicing in hot loops."""
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


def _window(cols: np.ndarray, c0: int, c1: int) -> tuple[int, int]:
    return int(np.searchsorted(cols, c0)), int(np.searchsorted(cols, c1))


def sampled_matvec(
    dataset: LabeledDataset,
    sel: RowBlockSelector,
    x: np.ndarray,
    col_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Scores of the sampled rows against ``x``.

    With ``col_range=(c0, c1)``, only columns in the window contribute and
    ``x`` is the window's slice (length c1-c0, locally indexed).
    """
    A = dataset.a_tilde
    idx = _check_selector(sel, A.num_rows)
    x = np.asarray(x, dtype=np.float64)
    if col_range is None:
        if x.shape != (A.num_cols,):
            raise ValueError(f"x must have length {A.num_cols}")
        out = np.empty(len(idx))
        for k, i in enumerate(idx):
            cols, vals = A.row(i)
            out[k] = np.dot(vals, x[cols])
        return out
    c0, c1 = col_range
    if x.shape != (c1 - c0,):
        raise ValueError(f"x must have length {c1 - c0} for column window [{c0}, {c1})")
    out = np.empty(len(idx))
    for k, i in enumerate(idx):
        cols, vals = A.row(i)
        lo, hi = _window(cols, c0, c1)
        out[k] = np.dot(vals[lo:hi], x[cols[lo:hi] - c0])
    return out


def sampled_matvec_transpose(
    dataset: LabeledDataset,
    sel: RowBlockSelector,
    v: np.ndarray,
    col_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Weighted sum of the sampled rows: sum_k v[k] * row(sel[k]).

    Returns a dense vector of length ``num_features`` (or the window width
    when ``col_range`` is given).  Rows are accumulated in selector order.
    """
    A = dataset.a_tilde
    idx = _check_selector(sel, A.num_rows)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (len(idx),):
        raise ValueError(f"v must have length {len(idx)}")
    if col_range is None:
        out = np.zeros(A.num_cols)
        for k, i in enumerate(idx):
            cols, vals = A.row(i)
            out[cols] += v[k] * vals
        return out
    c0, c1 = col_range
    out = np.zeros(c1 - c0)
    for k, i in enumerate(idx):
        cols, vals = A.row(i)
        lo, hi = _window(cols, c0, c1)
        out[cols[lo:hi] - c0] += v[k] * vals[lo:hi]
    return out


def _matched_dot(
    cols_a: np.ndarray,
    vals_a: np.ndarray,
    cols_b: np.ndarray,
    vals_b: np.ndarray,
) -> tuple[float, int]:
    """Merge of two sorted index lists; product sum in ascending column order."""
    if not len(cols_a) or not len(cols_b):
        return 0.0, 0
    pos = np.searchsorted(cols_a, cols_b)
    ok = pos < len(cols_a)
    ok[ok] = cols_a[pos[ok]] == cols_b[ok]
    matches = int(ok.sum())
    if not matches:
        return 0.0, 0
    return float(np.dot(vals_a[pos[ok]], vals_b[ok])), matches


def gram_block(
    dataset: LabeledDataset,
    sel_row: RowBlockSelector,
    sel_col: RowBlockSelector,
    col_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Pairwise inner products between two sampled row batches.

    ``out[k, l]`` is the inner product of row ``sel_row[k]`` and row
    ``sel_col[l]``, restricted to ``col_range`` when given, computed as a
    sparse merge of the two rows' sorted column indices.
    """
    A = dataset.a_tilde
    rows = _check_selector(sel_row, A.num_rows)
    cols_sel = _check_selector(sel_col, A.num_rows)
    out = np.empty((len(rows), len(cols_sel)))
    slices = {}
    for i in set(rows.tolist()) | set(cols_sel.tolist()):
        c, v = A.row(i)
        if col_range is not None:
            lo, hi = _window(c, *col_range)
            c, v = c[lo:hi], v[lo:hi]
        slices[i] = (c, v)
    for k, i in enumerate(rows):
        ci, vi = slices[int(i)]
        for l, j in enumerate(cols_sel):
            cj, vj = slices[int(j)]
            out[k, l], _ = _matched_dot(ci, vi, cj, vj)
    return out


# ---------------------------------------------------------------------------
# Round-sized kernels used by the solvers (full column range, many rows)


def gather_rows(dataset: LabeledDataset, row_ids: np.ndarray):
    """The sampled rows as one matrix, for a round's kernels to share.

    Dense rows (an ndarray) when the matrix keeps a dense cache, else CSR
    rows (a scipy matrix); both support ``@ x``, ``@ rows.T`` and ``.T @ w``.
    """
    A = dataset.a_tilde
    dense = A.dense_cache()
    return dense[row_ids] if dense is not None else A.scipy_csr[row_ids]


def batch_scores(
    dataset: LabeledDataset, row_ids: np.ndarray, x: np.ndarray, rows=None
) -> tuple[np.ndarray, int]:
    """Scores of ``row_ids`` against full-length ``x``; returns (scores, multiply-adds).

    ``rows`` is ``gather_rows(dataset, row_ids)`` when the caller holds it.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if rows is None:
        rows = gather_rows(dataset, row_ids)
    return rows @ x, int(dataset.a_tilde.row_nnz[row_ids].sum())


def gram_lower_blocks(
    dataset: LabeledDataset,
    row_ids: np.ndarray,
    block_size: int,
    out: np.ndarray | None = None,
    rows=None,
) -> tuple[np.ndarray, int]:
    """Strictly-lower b-by-b blocks of the sampled-row Gram matrix.

    ``row_ids`` holds s consecutive batches of ``block_size`` rows; block
    (j, i) with i < j is filled with inner products between batch j rows
    and batch i rows.  Diagonal and upper blocks are left untouched (zero
    when ``out`` is freshly allocated).  ``rows`` is
    ``gather_rows(dataset, row_ids)`` when the caller holds it.  Returns
    the matrix and the number of index matches (sparse multiply-adds) the
    blocks represent, counted exactly from the rows' column indices.
    """
    ids = np.asarray(row_ids, dtype=np.int64)
    sb = len(ids)
    b = block_size
    if sb % b:
        raise ValueError("len(row_ids) must be a multiple of block_size")
    if out is None:
        out = np.zeros((sb, sb))
    A = dataset.a_tilde
    if rows is None and A.dense_cache() is None and sb < _VECTORIZE_MIN_ROWS:
        slices = A.row_slices
        matches = 0
        for j in range(1, sb // b):
            for k in range(b):
                a_cols, a_vals = slices[ids[j * b + k]]
                for q in range(j * b):
                    b_cols, b_vals = slices[ids[q]]
                    val, hits = _matched_dot(a_cols, a_vals, b_cols, b_vals)
                    out[j * b + k, q] = val
                    matches += hits
        return out, matches
    if rows is None:
        rows = gather_rows(dataset, ids)
    full = rows @ rows.T
    if scipy.sparse.issparse(full):
        full = full.toarray()
    np.copyto(out, full, where=_block_tril_mask(sb, b))
    return out, _lower_block_matches(A, ids, b)


def add_rows_transpose(dataset: LabeledDataset, row_ids, w: np.ndarray, x: np.ndarray, rows=None) -> None:
    """``x += A[row_ids]^T w`` in place, for full-length ``x``.

    ``rows`` is ``gather_rows(dataset, row_ids)`` when the caller holds it.
    Dense rows take one BLAS product.  Otherwise only the rows' own
    columns are touched, row after row (CSR rows in one unbuffered
    scatter-add), which gives the same bits as updating row by row.
    """
    if rows is None:
        slices = dataset.a_tilde.row_slices
        for k, i in enumerate(row_ids):
            cols, vals = slices[i]
            x[cols] += w[k] * vals
    elif isinstance(rows, np.ndarray):
        x += rows.T @ w
    else:
        np.add.at(x, rows.indices, rows.data * np.repeat(w, np.diff(rows.indptr)))


def _lower_block_matches(A: CsrMatrix, ids: np.ndarray, b: int) -> int:
    """Sum of pairwise index-match counts over the strictly-lower blocks.

    Uses column occurrence counts: summed over all unordered row pairs,
    matches = (||colsum||^2 - nnz) / 2; within-block pairs are subtracted
    the same way.  Exact integer arithmetic throughout.
    """
    slices = A.row_slices
    n = A.num_cols
    ids = ids.tolist()
    flat = np.concatenate([slices[i][0] for i in ids])
    total = np.bincount(flat, minlength=n)
    all_pairs_x2 = int(np.dot(total, total)) - len(flat)
    if b == 1:
        return all_pairs_x2 // 2
    within_x2 = 0
    for j in range(len(ids) // b):
        batch_cols = np.concatenate([slices[i][0] for i in ids[j * b : (j + 1) * b]])
        counts = np.bincount(batch_cols, minlength=n)
        within_x2 += int(np.dot(counts, counts)) - len(batch_cols)
    return (all_pairs_x2 - within_x2) // 2


def _block_tril_mask(sb: int, b: int) -> np.ndarray:
    blocks = np.arange(sb) // b
    return blocks[:, None] > blocks[None, :]
