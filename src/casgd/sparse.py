"""CSR storage, LIBSVM ingestion, and sampled-row sparse kernels.

The data matrix is stored label-scaled: row i of ``a_tilde`` is the i-th
input row multiplied by its label in {-1, +1}.  Column indices are 0-based
internally; the 1-based LIBSVM indices are shifted on ingest.
``parse_libsvm`` reads LIBSVM text given as one ``str``, a chunk of whole
lines at a time, and maps the labels from the set, {-1, +1} or {0, 1},
that the file's first label other than +1 chooses.

Two kinds of kernels work on sampled rows (``tests/oracles.py`` holds
the row-by-row kernels they are tested against):

  * round kernels (``batch_scores``, ``gram_lower_blocks``,
    ``add_rows_transpose``) compute a solver round's scores, Gram blocks
    and update from one form of the round's rows, which ``gather_rows``
    picks: a list of (columns, values) rows (row by row) for one batch,
    dense rows for more under a dense cache, and otherwise
    ``RoundEntries``, the rows' stored entries from one gather.  A gather
    reads a matrix whose rows all hold ``CsrMatrix.width`` entries with one
    ``take`` of whole rows per CSR array, viewed as (rows, width), and
    other matrices (most column windows among them) through an index of
    every entry, with the same bytes.  Over entries a round whose rows
    hold equally many entries scores in one ``np.vecdot``, any other in
    one ``np.bincount`` by row, and an update is one ``np.add.at``.
    ``gather_rows`` and ``gram_lower_blocks`` also take a block of K
    rounds at once.  When the matrix keeps a dense cache the Gram is one
    in-place BLAS ``dsyrk`` per round of ``_SYRK_MIN_ROWS`` or more rows,
    or else one stacked product of the block's rounds, with its match
    counts from the rows of the matrix's CSR pattern; otherwise it pairs
    the entries that share a column with an entry of another batch of
    their round, after one sort by (round, column), reading the block's
    gather from ``gather_rows`` when given it.  A column-partitioned rank
    runs the kernels on its ``CsrMatrix.column_window``.
  * the row layout's block kernel, ``RowBlock``, gathers a block's stored
    entries once, in batch order, and sorts them at most once, by (round,
    column).  Every round then reads that one gather, with or without a
    dense cache: its ``RoundEntries`` for the scores, its support and each
    entry's key for the gradient scatter (one ``np.bincount`` into fresh
    buffers, ``RowBlock.gradients``), its allgather's words, and, at s > 1
    without a dense cache, its Gram pairs, which ``RowBlock.add_gram`` adds
    into the round's Gram and ``RowBlock.clear_gram`` clears from it.

The sparse Gram sums each inner product of two rows over the columns
they share, in ascending column order from +0.0, as scipy's CSR product
does, which keeps results reproducible.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, NoReturn, Sequence

import numpy as np
import scipy.sparse

__all__ = [
    "CsrMatrix",
    "LabeledDataset",
    "LibsvmParseError",
    "parse_libsvm",
    "serialize_libsvm",
    "gather_rows",
    "batch_scores",
    "gram_lower_blocks",
    "add_rows_transpose",
    "RowBlock",
    "RoundEntries",
]

# ``RowBlock`` gives a round its distinct columns when n is at least this
# many times the round's nonzeros, and None (use all n) otherwise.  A whole
# row-layout SGD round at p = 4 with the support (its share of the block's
# sort, the scatter into gradient buffers over the support, the reduction
# and the update of its columns) against over all n, in us, best of 15 on
# one core: n = 20000, 20 nonzeros per row, n/nnz = 62: 102 vs 157; 21: 222
# vs 264; 16: 247 vs 262; 10: 318 vs 323; 8: 444 vs 442.  n = 3000, 5 per
# row, n/nnz = 75: 34 vs 40; 38: 48 vs 52; 25: 67 vs 66; 19: 82 vs 85; 12:
# 151 vs 141; 9: 180 vs 164.  The support wins down to about 16 at n =
# 20000 but only breaks even from 25 down to 19 at n = 3000, and no
# benchmark round falls between 16 and 24, so the threshold stays at 24.
_SUPPORT_MIN_RATIO = 24

# Matrices up to this many cells keep a dense row cache so round kernels can
# run BLAS products on gathered rows; beyond it only the sparse paths apply.
_DENSE_CACHE_MAX_CELLS = 2_000_000

# A dense Gram round of at least this many rows (s*b) is one in-place BLAS
# level-3 ``dsyrk`` (Dongarra et al., "A Set of Level 3 BLAS", ACM TOMS
# 16(1), 1990), which forms only the lower triangle of R R^T; shorter
# rounds take one stacked square product per block of K rounds and a
# masked copy of their lower blocks.  Microseconds per block of K rounds
# over 112 binary columns (K as the default block budget gives it, noisy
# 2-vCPU host, OpenBLAS on one thread), stacked product and masked copy /
# one ``dsyrk`` per round:
#
#   s*b        2    8   16   32   48   64   96  128  256  512
#   K        134   32   15    6    4    2    1    1    1    1
#   stacked   89   63   73   78   86   69   64  119  366  910
#   dsyrk    439  147  103   85   82   58   49   74  223  607
#
# The rule reads s*b alone, so a round's bits never depend on its block.
_SYRK_MIN_ROWS = 64

# ``parse_libsvm`` converts lines a chunk at a time, a chunk holding the
# text up to the first '\n' that makes it this many characters long, so only
# one chunk's tokens are ever held as Python strings.  On the 8124-line,
# 0.9 MB benchmark input, chunks of 256K characters raised the parse's peak
# RSS by 5 MiB over this size and were no faster; chunks of 16K to 128K took
# the same time.
_CHUNK_CHARS = 32 * 1024

# The largest feature index: a 1-based index is stored in int64.
_MAX_INDEX = 2**63 - 1

# The most digits a plain decimal string may have to convert in bulk: the
# most whose numbers all fit in int64 (10**18 - 1 < 2**63 - 1 < 10**19 - 1).
_MAX_DIGITS = 18

# The columns of a dense row in ``gather_rows``' row-by-row form: all n.
_ALL = slice(None)


def _blas():
    """scipy's compiled BLAS wrappers ``ddot``, ``daxpy`` and ``dsyrk``.

    Only the ``scipy.linalg._fblas`` extension is loaded, and registered
    under its name, so a later ``import scipy.linalg`` reuses it.  Importing
    the ``scipy.linalg`` package instead runs its ``__init__``, which cost
    8.2 MiB of RSS and 0.17 s against 2.7 MiB and 3 ms for the extension.
    On 112 entries (x86-64, OpenBLAS on one thread) ``ddot`` took 160 ns
    against ``ndarray.dot``'s 420 ns, and ``daxpy`` with positional
    arguments 230 ns against 1050 ns for ``x += w * a``.  ``ddot`` raises
    on empty vectors, and ``daxpy`` returns a copy of a ``y`` that is not
    contiguous, so callers pass neither.  ``dsyrk`` writes into ``c`` only
    when ``c`` is a Fortran-contiguous float64 array and ``overwrite_c`` is
    set; otherwise it writes a copy, which its callers never read.
    """
    name = "scipy.linalg._fblas"
    module = sys.modules.get(name)
    if module is None:
        linalg = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(linalg, loader).find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.ddot, module.daxpy, module.dsyrk


ddot, daxpy, dsyrk = _blas()


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _RowsOnAccess:
    """``row_slices`` that slices row i (0 <= i < num_rows) from the CSR
    arrays when indexed.

    The offsets are held as a list of Python ints, which slice an array
    faster than numpy's own integers do.
    """

    __slots__ = ("_offsets", "_cols", "_vals")

    def __init__(self, A: "CsrMatrix"):
        self._offsets, self._cols, self._vals = A.row_offsets.tolist(), A.col_indices, A.values

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
    def width(self) -> int | None:
        """The stored entries of every row when all rows hold equally many,
        else None (also for a matrix of no rows)."""
        counts = self.row_nnz
        if not len(counts) or (counts != counts[0]).any():
            return None
        return int(counts[0])

    @cached_property
    def row_slices(self) -> Sequence[tuple[np.ndarray, np.ndarray]]:
        """Per-row (col_indices, values) views, sliced from the CSR arrays
        when indexed, so a matrix keeps no per-row objects."""
        return _RowsOnAccess(self)

    @cached_property
    def _dense(self) -> np.ndarray | None:
        if self.num_rows * self.num_cols > _DENSE_CACHE_MAX_CELLS:
            return None
        rows = self.to_dense()
        rows.setflags(write=False)
        return rows

    def dense_cache(self) -> np.ndarray | None:
        """Dense row array for small matrices, else None.

        A dense dot sums the padded zeros' products too, in BLAS's own
        order, so it can round differently from the sparse sum over the
        stored entries: runs with and without the cache may differ in the
        last bits.
        """
        return self._dense

    @cached_property
    def _pattern(self) -> np.ndarray | None:
        """Where the rows store entries, stored zeros included: a bool array
        of the dense cache's shape, or None without a dense cache.

        Built on first use (the dense Gram's match counts, or a column
        window), not with the dense cache.
        """
        if self._dense is None:
            return None
        out = np.zeros((self.num_rows, self.num_cols), dtype=bool)
        out[np.repeat(np.arange(self.num_rows), self.row_nnz), self.col_indices] = True
        out.setflags(write=False)
        return out

    def column_window(self, start: int, stop: int) -> "CsrMatrix":
        """Columns ``[start, stop)`` of every row, locally indexed.

        The window's dense cache and pattern are the same windows of this
        matrix's (views, or None when this matrix keeps no dense cache), so
        windows add no dense memory and take the same kernel paths as the
        whole matrix.
        """
        ci = self.col_indices
        keep = (ci >= start) & (ci < stop)
        kept = np.concatenate(([0], np.cumsum(keep)))
        window = CsrMatrix(self.num_rows, stop - start, kept[self.row_offsets], ci[keep] - start, self.values[keep])
        dense = self.dense_cache()
        # Fills the cached properties before their first use.
        vars(window)["_dense"] = None if dense is None else dense[:, start:stop]
        vars(window)["_pattern"] = None if dense is None else self._pattern[:, start:stop]
        return window

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.num_rows, self.num_cols))
        out[np.repeat(np.arange(self.num_rows), self.row_nnz), self.col_indices] = self.values
        return out


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


# ---------------------------------------------------------------------------
# LIBSVM text format


def _map_labels(line_nos: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """The labels in {-1, +1}, under the convention of the first label that
    is not +1: a -1 selects {-1, +1}, a 0 selects {0, 1} (0 maps to -1).
    Raises at the first label that fits no convention or not the file's."""
    others = np.flatnonzero(raw != 1.0)
    if len(others):
        low = float(raw[others[0]])
        if low not in (-1.0, 0.0):
            raise LibsvmParseError(int(line_nos[others[0]]), f"label {low} fits neither {{-1, +1}} nor {{0, 1}}")
        misfits = raw[others] != low
        if misfits.any():
            row = others[np.argmax(misfits)]
            allowed = "{-1, +1}" if low == -1.0 else "{0, 1}"
            raise LibsvmParseError(int(line_nos[row]), f"label {float(raw[row])} not in {allowed}")
    return np.where(raw == 1.0, 1.0, -1.0)


def _parse_line(line_no: int, tokens: list[str]) -> None:
    """Check one line's tokens one at a time; raise the first error found."""
    try:
        label = float(tokens[0])
    except ValueError:
        raise LibsvmParseError(line_no, f"bad label token {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise LibsvmParseError(line_no, f"non-finite label {tokens[0]!r}")
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
        if idx > _MAX_INDEX:
            raise LibsvmParseError(line_no, f"feature index {idx} must be <= {_MAX_INDEX}")
        if idx <= prev:
            raise LibsvmParseError(line_no, f"feature indices must be strictly increasing (index {idx} after {prev})")
        try:
            float(val_s)
        except ValueError:
            raise LibsvmParseError(line_no, f"bad feature value {val_s!r}") from None
        prev = idx


def _chunks(text: str) -> Iterator[tuple[list[int], list[str], list[int], list[str]]]:
    r"""The non-blank lines' tokens, a chunk at a time: (line numbers, label
    tokens, feature counts, feature tokens).

    Each chunk is the text up to the first '\n' that makes it at least
    ``_CHUNK_CHARS`` characters long, or, where no '\n' follows, the first
    '\r' (or the text's end), split into lines on its own, so no list of
    every line is held.  A cut after a '\n' never splits a line separator
    (``\r\n`` ends in it), nor does one after a '\r' with no '\n' after
    it, so the chunks hold the lines ``text.splitlines()`` gives.
    """
    start, first = 0, 1
    while start < len(text):
        at = start + _CHUNK_CHARS - 1
        cut = text.find("\n", at) + 1 or text.find("\r", at) + 1 or len(text)
        lines = text[start:cut].splitlines()
        chunk: tuple[list[int], list[str], list[int], list[str]] = ([], [], [], [])
        line_nos, labels, counts, features = chunk
        for line_no, raw in enumerate(lines, start=first):
            tokens = raw.split()
            if tokens:
                line_nos.append(line_no)
                labels.append(tokens[0])
                counts.append(len(tokens) - 1)
                features += tokens[1:]
        if line_nos:
            yield chunk
        start, first = cut, first + len(lines)


class _Rows(NamedTuple):
    """A chunk's rows: line numbers, labels before the policy maps them,
    feature counts, 1-based indices, unscaled values, and the error for the
    chunk's first non-finite value, raised once the whole input has parsed."""

    line_nos: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    non_finite: LibsvmParseError | None


def _convert(line_nos: list[int], label_tokens: list[str], counts: list[int], features: list[str]) -> _Rows:
    """One chunk's tokens as arrays, converted in batches."""
    nnz = len(features)
    joined = " ".join(features)
    try:
        labels = np.fromiter(map(float, label_tokens), np.float64, len(label_tokens))
        indices = values = None
        if nnz:
            raw = np.frombuffer(joined.encode(), dtype=np.uint8)
            ends = _token_ends(raw, nnz)
            if ends is None:
                raise ValueError("a feature token without exactly one ':'")
            # Index and value tokens alternate, each ending at a ':' or ' '.
            starts = np.concatenate(([0], ends[:-1] + 1))
            digits = raw - np.uint8(ord("0"))
            indices = _plain_decimals(digits, starts[0::2], ends[0::2])
            values = _plain_decimals(digits, starts[1::2], ends[1::2])
        parts = joined.replace(":", " ").split(" ") if nnz and (indices is None or values is None) else []
        if indices is None:
            indices = np.fromiter(map(int, parts[0::2]), np.int64, nnz)
        if values is None:
            values = np.fromiter(map(float, parts[1::2]), np.float64, nnz)
        else:
            values = values.astype(np.float64)
    except (ValueError, OverflowError):
        _replay(line_nos, label_tokens, counts, features)
    row_nnz = np.array(counts, dtype=np.int64)
    ends = np.cumsum(row_nnz)
    # Each index must exceed the one before it in its row, and 0 at the
    # row's start: so indices are >= 1 and strictly increasing.
    previous = np.empty(nnz, dtype=np.int64)
    previous[1:] = indices[:-1]
    previous[(ends - row_nnz)[row_nnz > 0]] = 0
    if not (np.isfinite(labels).all() and (indices > previous).all()):
        _replay(line_nos, label_tokens, counts, features)
    non_finite = None
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        line_no = line_nos[int(np.searchsorted(ends, k, side="right"))]
        non_finite = LibsvmParseError(line_no, f"non-finite feature value {parts[2 * k + 1]!r}")
    return _Rows(np.array(line_nos, dtype=np.int64), labels, row_nnz, indices, values, non_finite)


def _token_ends(raw: np.ndarray, count: int) -> np.ndarray | None:
    """The end offsets of the index and value strings in ``raw``, the UTF-8
    bytes of ``count`` (at least one) space-joined tokens, in token order; or
    None unless each token holds exactly one ':'.

    Tokens hold no whitespace, and in UTF-8 no other character encodes to a
    ':' or ' ' byte.  The count - 1 spaces and the ':' bytes alternate, from
    a ':' to a ':', exactly when every token holds one ':'.
    """
    seps = np.flatnonzero((raw == ord(":")) | (raw == ord(" ")))
    if len(seps) != 2 * count - 1 or not (raw[seps[0::2]] == ord(":")).all():
        return None
    return np.append(seps, len(raw))


def _plain_decimals(digits: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The strings ``digits[starts[k]:ends[k]]`` as int64 numbers, or None
    unless every one is 1 to ``_MAX_DIGITS`` ASCII digits.

    ``digits`` are the bytes less ord('0') in uint8, so only '0'-'9' read
    0-9: a sign, '_', '.', an exponent or a non-ASCII digit reads above 9.
    The numbers are exact in int64, so each equals ``int`` of its string,
    and its float64 cast equals ``float`` of it: both round the same
    integer to nearest even.
    """
    lengths = ends - starts
    width = int(lengths.max())
    if width > _MAX_DIGITS or lengths.min() < 1:
        return None
    numbers = np.zeros(len(ends), dtype=np.int64)
    # Horner's rule over each string's last ``width`` bytes, where those
    # before its start read 0.  Their offsets can fall below 0, but not
    # below 1 - width >= -len(digits).
    for back in range(width, 0, -1):
        digit = digits[ends - back]
        digit *= lengths >= back
        if (digit > 9).any():
            return None
        numbers *= 10
        numbers += digit
    return numbers


def _replay(line_nos: list[int], label_tokens: list[str], counts: list[int], features: list[str]) -> NoReturn:
    """Check a chunk that failed a batched check line by line; raise its first error."""
    lo = 0
    for line_no, label, count in zip(line_nos, label_tokens, counts):
        _parse_line(line_no, [label, *features[lo : lo + count]])
        lo += count
    raise AssertionError("a chunk failed a batched check that none of its lines fails")


def parse_libsvm(text: str, num_features: int | None = None) -> LabeledDataset:
    """Parse LIBSVM text (``<label> <idx>:<val> ...``, 1-based indices).

    Labels are {-1, +1} or {0, 1} (0 maps to -1), whichever the first label
    that is not +1 selects: a -1 or a 0.  ``num_features`` may force a
    column count larger than the maximum index seen (files underreport
    trailing all-zero features).  The stored matrix is pre-scaled by the
    mapped labels.

    The text is cut into chunks of about ``_CHUNK_CHARS`` characters of
    whole lines (``_chunks``), whose lines split into tokens with
    ``str.split()``.  Each chunk converts on its own: its labels in one
    ``map(float)``, and its feature tokens joined, their bytes checked for
    one ':' each, and their index and value strings located from the ':'
    and ' ' bytes.  When every index string of the chunk is 1 to 18 ASCII
    digits (no sign, '_', '.', exponent or other digit), the indices are
    their digits' weighted sums in int64, exact since 10**18 < 2**63, so
    each equals ``int`` of its string; the same holds for the values, whose
    float64 cast equals ``float`` of the string, as both round the one
    integer to nearest even.  A class of strings that is not all plain
    decimals (as 17-digit values are) is split out at ':' and ' ' and
    converted by one ``map(int)`` or ``map(float)``.  Array comparisons
    then check that indices are >= 1 and strictly increasing within each
    row.  Every value is what the ``int`` and ``float`` calls of a
    token-by-token loop give, and the accepted inputs are the same.  A
    chunk that fails a check is replayed one token at a time
    by ``_parse_line``, which raises the first error in line order with its
    line number: a malformed token, an index outside [1, 2**63 - 1] or not
    increasing, or a non-finite label.  A label outside the file's
    convention raises with its line once every line has parsed, and a
    non-finite feature value (quoted as the file wrote it) after that.
    """
    chunks = [_convert(*chunk) for chunk in _chunks(text)]
    if not chunks:
        raise LibsvmParseError(0, "no data lines found")
    columns = list(zip(*chunks))
    line_nos, raw_labels, counts, indices, values = map(np.concatenate, columns[:5])
    labels = _map_labels(line_nos, raw_labels)

    max_col = int(indices.max()) if len(indices) else 0
    n = max_col
    if num_features is not None:
        if num_features < max_col:
            raise ValueError(f"num_features={num_features} smaller than max index seen ({max_col})")
        n = num_features
    if n == 0:
        raise LibsvmParseError(0, "no features found")

    m = len(labels)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    non_finite = next((error for error in columns[5] if error is not None), None)
    if non_finite is not None:
        raise non_finite
    matrix = CsrMatrix(m, n, offsets, indices - 1, values * np.repeat(labels, counts))
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
# Round kernels used by the solvers


def gather_rows(dataset: LabeledDataset, row_ids, batches: int):
    """A round's rows in the one form its kernels share.

    ``row_ids`` are the rows a kernel is handed and ``batches`` how many
    batches they span.  The form is:

      * a list of each row's (columns, values) pair, which the kernels take
        row by row, for one batch (s = 1 then mirrors plain SGD operation
        for operation).  Under a dense cache a row's columns are all n
        (``slice(None)``) and its values the dense row, so its score is a
        dense dot and its update a dense-row axpy;
      * dense rows (an ndarray) for more batches when the matrix, or the
        column window, keeps a dense cache.  They support ``@ x``,
        ``.T @ w`` and ``@ rows.T``;
      * else ``RoundEntries``, the rows' stored entries from one gather.

    ``row_ids`` may also be a (K, s*b) array of K rounds; indexing the
    result by round gives each round's form.  Dense rows are gathered in
    one call, as a (K, s*b, n) array, row lists in one pass split by round,
    and entries in one ``_gather`` split by round, which the list of rounds
    keeps for ``gram_lower_blocks``.
    """
    A = dataset.a_tilde
    dense = A.dense_cache()
    if dense is not None and batches > 1:
        return dense[row_ids]
    ids = np.asarray(row_ids, dtype=np.int64)
    if batches > 1:
        gathered, edges, row_ofs = _gather_rounds(A, ids.reshape(-1, ids.shape[-1]))
        _, cols, vals, _ = gathered
        rounds = _Rounds(RoundEntries(cols[lo:hi], vals[lo:hi], rows) for lo, hi, rows in zip(edges, edges[1:], row_ofs))
        rounds.gathered = gathered
        return rounds[0] if ids.ndim == 1 else rounds
    if dense is not None:
        rows = [(_ALL, row) for row in dense[ids.ravel()]]
    else:
        slices = A.row_slices
        rows = [slices[i] for i in ids.ravel().tolist()]
    if ids.ndim == 1:
        return rows
    step = ids.shape[-1]
    return [rows[i : i + step] for i in range(0, len(rows), step)]


def batch_scores(dataset: LabeledDataset, row_ids, x: np.ndarray, rows=None, out=None) -> np.ndarray:
    """Scores of ``row_ids`` against full-length ``x``.

    ``rows`` is ``gather_rows``' form of ``row_ids`` (None: row by row), or
    a ``RowBlock`` round's ``RoundEntries``.  A list takes one BLAS
    ``ddot`` per row (+0.0 for an empty row) and dense rows one BLAS
    product.  Entries gather x once: rows of equal entry counts then take
    one ``np.vecdot`` over the entries reshaped, which sums each row as
    ``0.0 +`` the dot that ``ddot`` returns (a -0.0 dot comes back as
    +0.0, which neither sig nor the recurrence can tell apart), and other
    rounds one ``np.bincount`` of the products by row, which sums each row
    from +0.0 in column order, as a CSR product does.  Scores are written into
    ``out`` when given.  Their multiply-adds are the rows' stored entries,
    ``row_nnz``, which the caller counts.
    """
    if out is None:
        out = np.empty(len(row_ids))
    if rows is None:
        rows = gather_rows(dataset, row_ids, 1)
    if isinstance(rows, list):
        for k, (cols, vals) in enumerate(rows):
            # A dense row takes x itself, not the view x[:]; an empty row
            # scores +0.0, which ``ddot`` would refuse.
            out[k] = ddot(vals, x if cols is _ALL else x[cols]) if len(vals) else 0.0
    elif isinstance(rows, RoundEntries):
        xs, vals = x[rows.cols], rows.vals
        if rows.row_of is None:
            out[:] = np.vecdot(vals.reshape(len(out), -1), xs.reshape(len(out), -1))
        else:
            out[:] = np.bincount(rows.row_of, vals * xs, len(out))
    else:
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
    is freshly allocated; ``out`` must be a C-contiguous float64 array).
    ``rows`` is ``gather_rows``' form of ``row_ids`` (None: gathered here).
    Dense rows give the BLAS products, and the entries of K rounds the
    gather that the pairing reads; other forms are gathered again.  A round
    of ``_SYRK_MIN_ROWS`` or more dense rows is one ``dsyrk``, which writes
    the lower triangle of its Gram into ``out`` itself; the cells of its
    diagonal blocks that the call overwrites are saved before it and
    written back after it.  Shorter rounds, any K of them, take one stacked
    square product, whose lower blocks are copied into ``out``.  Under
    OpenBLAS a ``dsyrk`` round's entries are ``R @ R.T``'s bit for bit
    where s*b is a multiple of 8; elsewhere a few differ, each by less
    than one ulp of the round's largest entry.

    Returns the blocks and each round's index matches (sparse multiply-adds),
    counted exactly from the rows' column indices: an int64 array of the
    shape of ``row_ids`` without its last axis.  Under a dense cache they
    come from the rows of the matrix's CSR pattern, built on first use,
    where stored zeros count as entries; otherwise from the pairs.
    """
    row_ids = np.asarray(row_ids)
    sb = row_ids.shape[-1]
    b = block_size
    if sb % b:
        raise ValueError("len(row_ids) must be a multiple of block_size")
    shape = row_ids.shape[:-1] + (sb, sb)
    if out is None:
        out = np.zeros(shape)
    elif out.dtype != np.float64 or out.shape != shape or not out.flags.c_contiguous:
        # ``dsyrk`` would fill a copy of an ``out`` of another dtype or
        # layout and drop it.
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    A = dataset.a_tilde
    dense = A.dense_cache()
    if dense is not None:
        if rows is None:
            rows = dense[row_ids]
        if sb < _SYRK_MIN_ROWS or not A.num_cols:
            # BLAS refuses a ``dsyrk`` over no columns.
            np.copyto(out, np.matmul(rows, rows.swapaxes(-1, -2)), where=_block_tril_mask(sb, b))
        else:
            # On the Fortran views, ``trans = 1, lower = 0`` writes R R^T's
            # lower triangle in C order.  Arguments go positionally, which
            # f2py parses faster than keywords.
            keep = _diagonal_block_cells(sb, b)
            for R, G in zip(rows.reshape(-1, sb, A.num_cols), out.reshape(-1, sb, sb)):
                cells = G.reshape(-1)
                saved = cells[keep]
                dsyrk(1.0, R.T, 0.0, G.T, 1, 0, 1)
                cells[keep] = saved
        # With T_c the round's rows that hold column c and T_jc those of
        # batch j, every pair of a column's entries less the pairs within
        # one batch matches: (sum_c T_c^2 - sum_j sum_c T_jc^2) / 2.  A
        # batch of one row holds a column at most once, so the second sum is
        # then the rows' stored entries.  Column counts are summed in int32
        # (a round's rows fit), in 1/2 to 2/3 of the time int64 takes.
        held = A._pattern[row_ids]
        if b == 1:
            T = held.sum(axis=-2, dtype=np.int32).astype(np.int64)
            within = A.row_nnz[row_ids].sum(axis=-1)
        else:
            T_j = held.reshape(row_ids.shape[:-1] + (sb // b, b, -1)).sum(axis=-2, dtype=np.int32).astype(np.int64)
            T = T_j.sum(axis=-2)
            within = np.vecdot(T_j, T_j).sum(axis=-1)
        return out, (np.vecdot(T, T) - within) // 2
    # Every pair of entries of one round that share a column, the later one
    # in a later batch, adds its product to G[later, earlier].  Pairs come
    # in ascending column order, so each entry sums from +0.0 in that order.
    for lo in range(b, sb, b):
        out[..., lo : lo + b, :lo] = 0.0
    _, cols, vals, row_of = rows.gathered if isinstance(rows, _Rounds) else _gather(A, row_ids.reshape(-1))
    _, entry, new = _sort_by_column(row_of // sb * A.num_cols + cols)
    later, earlier, products = _shared_column_pairs(new, entry, row_of, vals, b)
    np.add.at(out.reshape(-1), later * sb + earlier % sb, products)
    return out, np.bincount(later // sb, minlength=row_ids.size // sb).reshape(row_ids.shape[:-1])


def add_rows_transpose(dataset: LabeledDataset, row_ids, w: np.ndarray, x: np.ndarray, rows=None) -> None:
    """``x += A[row_ids]^T w`` in place, for full-length ``x``.

    ``rows`` is ``gather_rows``' form of ``row_ids`` (None: row by row).
    Dense rows take one BLAS product.  Entries take one unbuffered
    scatter-add, which gives the bits of adding them row by row.  A
    row-by-row list adds each row in turn: a sparse row to its own columns,
    a dense row to all n.  Off its columns a dense row adds +0.0 or -0.0
    products, which change no entry of an ``x`` free of -0.0, so it gives
    the sparse row's bits.  The solvers' x and gradient buffers start at
    +0.0 and never hold -0.0 (a sum is -0.0 only if both terms are).
    """
    if rows is None:
        rows = gather_rows(dataset, row_ids, 1)
    if isinstance(rows, list):
        for k, (cols, vals) in enumerate(rows):
            # A dense row adds in place, without x[:]'s view and write-back.
            if cols is _ALL:
                x += w[k] * vals
            else:
                x[cols] += w[k] * vals
    elif isinstance(rows, RoundEntries):
        np.add.at(x, rows.cols, rows.weighted(w))
    else:
        x += rows.T @ w


def _gather(A: CsrMatrix, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stored entries of rows ``flat`` in their order: the offset of each
    row's first entry (and the total), and per entry its column, value and
    position in ``flat``.

    When every row holds ``A.width`` entries, each CSR array is read with one
    ``take`` of whole rows from its (rows, width) view.  Otherwise each
    entry's offset is built from its row's start and read on its own.  Both
    give the same arrays.
    """
    width = A.width
    if width is not None:
        shape = (A.num_rows, width)
        cols = A.col_indices.reshape(shape).take(flat, axis=0).ravel()
        vals = A.values.reshape(shape).take(flat, axis=0).ravel()
        return np.arange(len(flat) + 1) * width, cols, vals, np.repeat(np.arange(len(flat)), width)
    counts = A.row_nnz[flat]
    starts = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    row_of = np.repeat(np.arange(len(flat)), counts)
    entries = (A.row_offsets[flat] - starts[:-1])[row_of]
    entries += np.arange(len(entries))
    return starts, A.col_indices[entries], A.values[entries], row_of


def _sort_by_column(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sort of (round, column) ``keys``, ties in entry order.

    Returns the sorted keys, the entry at each sorted place, and the mask of
    the places that start a run of equal keys.  The keys carry each entry's
    index in their low bits, so an unstable sort keeps ties in order.
    """
    bits = len(keys).bit_length()
    packed = (keys << bits) | np.arange(len(keys))
    packed.sort()
    by_column = packed >> bits
    new = np.empty(len(packed), dtype=bool)
    new[:1] = True
    np.not_equal(by_column[1:], by_column[:-1], out=new[1:])
    return by_column, packed & ((1 << bits) - 1), new


def _shared_column_pairs(
    new: np.ndarray, entry: np.ndarray, row_of: np.ndarray, vals: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of a round's entries that share a column, the later one in
    a later batch of ``b`` rows, from entries sorted by (round, column, entry).

    ``new`` marks where a (round, column) run starts and ``entry`` is the
    entry at each sorted place; ``row_of`` and ``vals`` give an entry's row
    (its position in the rounds' flattened row ids) and value.  Returns per
    pair the later entry's row, the earlier entry's row and their product,
    ordered by (round, column, later entry, earlier entry).  Runs of one
    entry hold no pair and are dropped before any per-pair work.
    """
    single = new.copy()
    single[:-1] &= new[1:]
    shared = np.flatnonzero(~single)
    entry, starts = entry[shared], new[shared]
    rows = row_of[entry]
    index = np.arange(len(entry))
    first = np.maximum.accumulate(index * starts)
    batch = rows // b
    starts[1:] |= batch[1:] != batch[:-1]
    # Entries of the run in earlier batches lead it.
    earlier = np.maximum.accumulate(index * starts)
    earlier -= first
    later = np.repeat(index, earlier)
    ends = np.cumsum(earlier)
    partner = np.arange(len(later)) + (first - ends + earlier)[later]
    vals = vals[entry]
    return rows[later], rows[partner], vals[later] * vals[partner]


class RoundEntries(NamedTuple):
    """One round's rows as one run of their stored entries, in row order.

    ``row_of`` is each entry's row in the round, or None when every row
    holds equally many entries; ``cols`` and ``vals`` then reshape to
    (rows, count) arrays.  A ``RowBlock`` round also has ``keys``, the
    entries' places in the gradient buffers (see ``RowBlock``), and, with
    Gram pairs, ``targets`` and ``products``: where each pair adds its
    product in the round's s*b square, as a flat index, in the order
    ``gram_lower_blocks`` adds them (``RowBlock.add_gram``).
    """

    cols: np.ndarray
    vals: np.ndarray
    row_of: np.ndarray | None
    keys: np.ndarray | None = None
    targets: np.ndarray | None = None
    products: np.ndarray | None = None

    def weighted(self, w: np.ndarray) -> np.ndarray:
        """Each entry's value times its row's weight in ``w``."""
        weights = np.repeat(w, len(self.vals) // len(w)) if self.row_of is None else w[self.row_of]
        return self.vals * weights


class _Rounds(list):
    """``gather_rows``' ``RoundEntries`` of K rounds, with the one ``_gather``
    they slice, ``gathered``, which ``gram_lower_blocks`` pairs."""

    gathered: tuple


def _gather_rounds(A: CsrMatrix, ids: np.ndarray) -> tuple[tuple, list[int], list[np.ndarray | None]]:
    """One ``_gather`` of the stored entries of a (K, s*b) ``ids``: the
    gather, where each round's entries start (and the total), and each
    round's ``RoundEntries.row_of``."""
    sb = ids.shape[1]
    gathered = starts, _, _, _ = _gather(A, ids.ravel())
    edges = starts[::sb].tolist()
    if A.width is not None:
        return gathered, edges, [None] * len(ids)
    counts = A.row_nnz[ids]
    equal = (counts == counts[:, :1]).all(axis=1).tolist()
    # Integer division over the entries takes a few times a repeat's time.
    local = None if all(equal) else np.repeat(np.arange(ids.size) % sb, counts.ravel())
    return gathered, edges, [None if same else local[lo:hi] for lo, hi, same in zip(edges, edges[1:], equal)]


class RowBlock:
    """A block of row-layout rounds, read from one gather of their stored entries.

    ``row_ids`` is a (K, s*b) array: per round, s batches of ``b`` rows, and
    each of the p ranks holds ``width`` consecutive rows of every batch.
    The block's entries are gathered once, in the order of
    ``row_ids.ravel()``, and sorted at most once, by (round, column): all
    of them when any round has Gram pairs or a support, and not at all
    when none does.  Per round it gives:

      * ``rounds``: its ``RoundEntries``, which its scores, gradients and
        Gram pairs read;
      * ``supports``: its sorted distinct columns, or None when its rows
        hold more than n / ``_SUPPORT_MIN_RATIO`` entries;
      * ``head_words``: the stored entries of its first s-1 batches'
        rows, which the s-step allgather counts (0 at s = 1);
      * at s > 1 without a dense cache (whose Gram is a BLAS product of
        dense rows), its Gram pairs (in ``rounds``, added by ``add_gram``),
        counted by ``matches`` (int64, one per round; else None).

    An entry's key is its place in the flattened gradient buffers of its
    round's ranks: (p, n) buffers over all columns (``rank * n + column``)
    for a round without a support, and otherwise (p, len(support)) buffers
    over its support (``rank * len(support)`` + its column's slot).
    ``gradients`` adds each rank's rows of a round, weighted, into fresh
    buffers in row order, as ``add_rows_transpose`` over the rank's own
    rows into zeroed buffers would.
    """

    def __init__(self, dataset: LabeledDataset, row_ids, b: int, width: int):
        A = dataset.a_tilde
        n = A.num_cols
        ids = np.asarray(row_ids, dtype=np.int64)
        K, sb = ids.shape
        s, p = sb // b, b // width
        self.p, self.n = p, n
        (starts, cols, vals, row_of), edges, row_ofs = _gather_rounds(A, ids)
        sizes = np.diff(edges)
        rank = np.repeat(np.arange(ids.size) % b // width, A.row_nnz[ids.ravel()] if A.width is None else A.width)

        with_support = sizes * _SUPPORT_MIN_RATIO <= n
        pairs = s > 1 and A.dense_cache() is None
        self.supports: list[np.ndarray | None] = [None] * K
        self.matches = None
        keys = None if with_support.all() else rank * n + cols
        if pairs or with_support.any():
            keyed = np.repeat(np.arange(K) * n, sizes) + cols
            by_column, entry, new = _sort_by_column(keyed)
            if with_support.any():
                distinct = by_column[new]
                first = np.searchsorted(distinct, np.arange(K + 1) * n)
                columns = distinct % n
                # Each entry's column's place among the sorted distinct
                # (round, column), made its slot in its round's support.
                place = np.empty(len(cols), dtype=np.int64)
                place[entry] = np.cumsum(new) - 1
                place += rank * np.repeat(np.diff(first), sizes) - np.repeat(first[:-1], sizes)
                keys = place if keys is None else np.where(np.repeat(with_support, sizes), place, keys)
                first = first.tolist()
                for k in np.flatnonzero(with_support).tolist():
                    self.supports[k] = columns[first[k] : first[k + 1]]
            if pairs:
                later, earlier, products = _shared_column_pairs(new, entry, row_of, vals, b)
                targets = later % sb * sb + earlier % sb
                pair_starts = np.searchsorted(later, np.arange(K + 1) * sb)
                self.matches = np.diff(pair_starts)
                pair_starts = pair_starts.tolist()

        # Each round's entries before its last batch starts: what its
        # allgather sends besides the scores.
        firsts = np.arange(K) * sb
        self.head_words = (starts[firsts + (s - 1) * b] - starts[firsts]).tolist()
        self.rounds = []
        for k, rows in enumerate(row_ofs):
            lo, hi = edges[k], edges[k + 1]
            gram = (targets[pair_starts[k] : pair_starts[k + 1]], products[pair_starts[k] : pair_starts[k + 1]]) if pairs else ()
            self.rounds.append(RoundEntries(cols[lo:hi], vals[lo:hi], rows, keys[lo:hi], *gram))

    def gradients(self, k: int, w: np.ndarray) -> np.ndarray:
        """Each rank's gradient over round ``k``'s rows, weighted by ``w`` (one
        weight per row): a fresh (p, n) array, or (p, len(support)) over the
        round's support.

        One ``np.bincount`` over the round's keys adds every entry's product
        into its rank's buffer in row order, from +0.0, as ``np.add.at``
        into zeroed buffers, or ``add_rows_transpose`` over each rank's own
        rows, does.
        """
        here, support = self.rounds[k], self.supports[k]
        width = self.n if support is None else len(support)
        sums = np.bincount(here.keys, here.weighted(w), self.p * width)
        # Without keys bincount gives int zeros.
        return sums.astype(np.float64, copy=False).reshape(self.p, width)

    def add_gram(self, k: int, G: np.ndarray) -> None:
        """Adds round ``k``'s Gram pairs into ``G``, its C-contiguous s*b square.

        ``G``'s strictly lower blocks must be zero; they then hold what
        ``gram_lower_blocks`` gives for the round, until ``clear_gram``.
        """
        here = self.rounds[k]
        np.add.at(G.reshape(-1), here.targets, here.products)

    def clear_gram(self, k: int, G: np.ndarray) -> None:
        """Zeroes the entries of ``G`` that round ``k``'s pairs wrote, so its
        strictly lower blocks are zero again without a pass over them."""
        G.reshape(-1)[self.rounds[k].targets] = 0.0


@lru_cache(maxsize=8)
def _diagonal_block_cells(sb: int, b: int) -> np.ndarray:
    """Flat indices of the cells on or below the diagonal inside the b-by-b
    diagonal blocks of an sb-by-sb matrix (built once per shape)."""
    i, j = np.tril_indices(sb)
    cells = (i * sb + j)[i // b == j // b]
    cells.setflags(write=False)
    return cells


@lru_cache(maxsize=8)
def _block_tril_mask(sb: int, b: int) -> np.ndarray:
    """Mask of the strictly-lower b-by-b blocks of an sb-by-sb matrix (built once per shape)."""
    blocks = np.arange(sb) // b
    mask = blocks[:, None] > blocks[None, :]
    mask.setflags(write=False)
    return mask
