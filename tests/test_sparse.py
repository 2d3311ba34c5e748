import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casgd import CsrMatrix, LabeledDataset, LibsvmParseError, parse_libsvm, serialize_libsvm
from casgd.datagen import synthetic_dataset
import casgd.sparse
from casgd.sparse import RoundEntries, add_rows_transpose, batch_scores, gather_rows, gram_lower_blocks

from conftest import assert_datasets_equal, dataset_from_scaled, ragged_libsvm_dataset, random_dataset
from oracles import RowBlockSelector, csr_from_dense, gram_block, sampled_matvec, sampled_matvec_transpose


def _form_bytes(rows):
    """``gather_rows``' form of some rows as comparable bytes: a list's
    (columns, values) pairs row by row, the entries' columns, values and
    rows, or the dense rows."""
    if isinstance(rows, list):
        return [(repr(cols) if isinstance(cols, slice) else cols.tobytes(), vals.tobytes()) for cols, vals in rows]
    if isinstance(rows, RoundEntries):
        return rows.cols.tobytes(), rows.vals.tobytes(), None if rows.row_of is None else rows.row_of.tobytes()
    return rows.tobytes()


def _entries_dense(rows, size, n):
    """``RoundEntries`` of ``size`` rows as a dense (size, n) array."""
    out = np.zeros((size, n))
    row_of = np.repeat(np.arange(size), len(rows.cols) // size) if rows.row_of is None else rows.row_of
    out[row_of, rows.cols] = rows.vals
    return out


def _row_pairs(d, ids):
    """Each row's (columns, values) as ``gather_rows`` lists them: the dense
    row over all n columns under a dense cache, else the stored entries."""
    A = d.a_tilde
    dense = A.dense_cache()
    return [(slice(None), dense[i]) if dense is not None else A.row(i) for i in ids]


def _column_slices(d, cuts):
    """Per-window datasets, built the way ``VirtualCluster.column_slices`` builds them."""
    return [LabeledDataset.build(d.a_tilde.column_window(c0, c1), d.labels) for c0, c1 in zip(cuts[:-1], cuts[1:])]


class TestParseLibsvm:
    def test_basic_row(self):
        d = parse_libsvm("+1 1:0.5 3:2.0")
        assert d.num_points == 1 and d.num_features == 3
        cols, vals = d.a_tilde.row(0)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [0.5, 2.0])
        assert d.labels[0] == 1.0

    def test_negative_label_scales_values(self):
        d = parse_libsvm("-1 2:1.0")
        cols, vals = d.a_tilde.row(0)
        np.testing.assert_array_equal(cols, [1])
        np.testing.assert_array_equal(vals, [-1.0])

    def test_zero_one_policy(self):
        d = parse_libsvm("0 1:1.0")
        assert d.labels[0] == -1.0
        assert d.a_tilde.row(0)[1][0] == -1.0

    def test_auto_policy_detects_zero_one(self):
        d = parse_libsvm("1 1:1.0\n0 1:2.0\n1 1:3.0\n-0 1:4.0")
        np.testing.assert_array_equal(d.labels, [1.0, -1.0, 1.0, -1.0])

    def test_auto_policy_rejects_mixed(self):
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm("1 1:1.0\n2 1:1.0")
        assert str(info.value) == "line 2: label 2.0 fits neither {-1, +1} nor {0, 1}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("2 1:1\n-1 1:1\n1 1:1", "line 1: label 2.0 fits neither {-1, +1} nor {0, 1}"),
            ("1 1:1\n-1 1:1\n2 1:1", "line 3: label 2.0 not in {-1, +1}"),
            ("0 1:1\n1 1:1\n\n2 1:1", "line 4: label 2.0 not in {0, 1}"),
            ("1 1:1\n-1 1:1\n0 1:1\n-1 1:1", "line 3: label 0.0 not in {-1, +1}"),
            ("1 1:1\n0 1:1\n-1 1:1\n0 1:1", "line 3: label -1.0 not in {0, 1}"),
            ("1 1:1\n-0 1:1\n-1 1:1", "line 3: label -1.0 not in {0, 1}"),
        ],
    )
    def test_first_label_not_plus_one_sets_the_convention(self, text, message):
        """A -1 selects {-1, +1} and a 0 selects {0, 1}; the first label
        outside the file's convention raises with its line."""
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(text)
        assert str(info.value) == message
        assert _parse_outcome(_reference_parse, text, None) == _parse_outcome(parse_libsvm, text, None)

    def test_malformed_pair_reports_line(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("+1 1:1.0\n-1 broken\n")
        assert err.value.line == 2

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("+1 2:1.0 2:3.0")
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("+1 3:1.0 2:3.0")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("+1 7 8:9:3", "expected idx:val, got '7'"),
            ("+1 7:8:9 3", "bad feature value '8:9'"),
            ("+1 2:1 5 6:7:8 9:1", "expected idx:val, got '5'"),
        ],
    )
    def test_tokens_without_and_with_two_colons_in_one_row(self, line, message):
        """The two flaws leave as many ':' as tokens, and their strings
        re-pair into increasing indices; the first flaw is still reported."""
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(f"-1 1:1\n{line}")
        assert str(info.value) == f"line 2: {message}"

    def test_index_zero_rejected(self):
        with pytest.raises(LibsvmParseError, match=">= 1"):
            parse_libsvm("+1 0:1.0")

    def test_bad_value_rejected(self):
        with pytest.raises(LibsvmParseError, match="value"):
            parse_libsvm("+1 1:abc")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected_with_line(self, token):
        with pytest.raises(LibsvmParseError, match="non-finite") as info:
            parse_libsvm(f"+1 1:1.0\n\n-1 1:2.0 3:{token}\n+1 2:1.0")
        assert info.value.line == 3

    @pytest.mark.parametrize("token", ["nan", "1e999"])
    def test_non_finite_value_quoted_as_written(self, token):
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(f"+1 1:1.0\n-1 2:{token}")
        assert str(info.value) == f"line 2: non-finite feature value {token!r}"

    @pytest.mark.parametrize("later", ["2", "-1", "0"])
    @pytest.mark.parametrize("token", ["nan", "-inf", "1e999"])
    def test_non_finite_label_rejected_with_line(self, token, later):
        """Raised at its line before any label convention is chosen, whether
        a later label would choose {-1, +1}, {0, 1} or neither."""
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(f"1 1:1.0\n\n{token} 2:1.0\n{later} 1:1.0")
        assert info.value.line == 3
        assert str(info.value) == f"line 3: non-finite label {token!r}"

    @pytest.mark.parametrize("index", ["99999999999999999999", "9223372036854775808"])
    def test_index_beyond_int64_rejected_with_line(self, index):
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(f"+1 1:1.0\n-1 {index}:1")
        assert info.value.line == 2
        assert "must be <= 9223372036854775807" in str(info.value)
        d = parse_libsvm("+1 1:1.0\n-1 9223372036854775807:1")
        assert d.num_features == 2**63 - 1 and d.a_tilde.col_indices[-1] == 2**63 - 2

    def test_unknown_label_under_policy(self):
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm("-1 1:1.0\n0 1:1.0")
        assert str(info.value) == "line 2: label 0.0 not in {-1, +1}"

    def test_blank_lines_skipped(self):
        d = parse_libsvm("\n+1 1:1.0\n\n-1 2:1.0\n")
        assert d.num_points == 2

    def test_num_features_override(self):
        d = parse_libsvm("+1 1:1.0", num_features=10)
        assert d.num_features == 10
        with pytest.raises(ValueError, match="smaller than"):
            parse_libsvm("+1 5:1.0", num_features=3)

    def test_empty_input_rejected(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("  \n\n")

    def test_density_and_nnz(self):
        d = parse_libsvm("+1 1:1.0 2:1.0\n-1 4:1.0")
        assert d.nnz == 3
        assert d.density == 3 / (2 * 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parse_serialize_roundtrip(self, seed):
        d = synthetic_dataset(23, 11, 4, seed=seed)
        text = serialize_libsvm(d)
        d2 = parse_libsvm(text)
        assert_datasets_equal(d, d2)
        assert serialize_libsvm(d2) == text


def _reference_parse(text, num_features=None) -> LabeledDataset:
    """The token-by-token parser ``parse_libsvm`` replaced, kept as its oracle.

    It differs from the replaced loop in four checks only: a non-finite
    label and an index above int64 are line-numbered errors, a non-finite
    value is quoted as the file wrote it, and the first label that is not
    +1 chooses the label convention.
    """
    lines = text.splitlines()

    raw_labels: list[tuple[int, float]] = []
    row_cols: list[np.ndarray] = []
    row_vals: list[np.ndarray] = []
    row_tokens: list[list[str]] = []
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
        if not math.isfinite(label):
            raise LibsvmParseError(line_no, f"non-finite label {tokens[0]!r}")
        cols: list[int] = []
        vals: list[float] = []
        val_tokens: list[str] = []
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
            if idx > 2**63 - 1:
                raise LibsvmParseError(line_no, f"feature index {idx} must be <= {2**63 - 1}")
            if idx <= prev:
                raise LibsvmParseError(line_no, f"feature indices must be strictly increasing (index {idx} after {prev})")
            try:
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(line_no, f"bad feature value {val_s!r}") from None
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
            val_tokens.append(val_s)
        if cols:
            max_col = max(max_col, cols[-1] + 1)
        raw_labels.append((line_no, label))
        row_cols.append(np.array(cols, dtype=np.int64))
        row_vals.append(np.array(vals, dtype=np.float64))
        row_tokens.append(val_tokens)

    if not raw_labels:
        raise LibsvmParseError(0, "no data lines found")

    # The first label that is not +1 chooses the convention: a -1 {-1, +1},
    # a 0 {0, 1}.  Either maps +1 to +1 and its other label to -1.
    low = None
    labels = np.empty(len(raw_labels))
    for i, (line_no, lab) in enumerate(raw_labels):
        if lab != 1.0 and low is None:
            if lab not in (-1.0, 0.0):
                raise LibsvmParseError(line_no, f"label {lab} fits neither {{-1, +1}} nor {{0, 1}}")
            low = lab
        if lab != 1.0 and lab != low:
            allowed = "{-1, +1}" if low == -1.0 else "{0, 1}"
            raise LibsvmParseError(line_no, f"label {lab} not in {allowed}")
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
    col_indices = np.concatenate(row_cols)
    values = np.concatenate([v * labels[i] for i, v in enumerate(row_vals)])
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values)))
        row = int(np.searchsorted(offsets, bad, side="right")) - 1
        token = row_tokens[row][bad - offsets[row]]
        raise LibsvmParseError(raw_labels[row][0], f"non-finite feature value {token!r}")
    return LabeledDataset.build(CsrMatrix(m, n, offsets, col_indices, values), labels)


_ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# Spellings that int() reads as the same index.
_INDEX_FORMS = [str, lambda i: f"+{i}", lambda i: f"00{i}", lambda i: "_".join(str(i)), lambda i: str(i).translate(_ARABIC_DIGITS)]
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.sampled_from(["0", "-0", "1", "-1.5", ".5", "5.", "+1e-320", "1_0.5", "1E3", "\u0662.5"]),
)
_LABEL_SETS = [("+1", "-1"), ("0", "1"), ("1", "-1.0", "+1e0"), ("-0", "1.0"), ("1", "2", "-1"), ("1", "0", "-1")]
# Each kind of malformed feature token, with an index above any row's
# (they go at a row's end), and of malformed label.
_BAD_TOKENS = [
    "77", "77:1:3", ":1", "77:", "a:1", "77:x", "0:1", "-2:1", "1.5:1", "99999999999999999999:1",
    "-99999999999999999999:1", "9223372036854775808:1", "77::2", "\u0667\u0667:\u0662x", "77:nan", "77:-inf", "77:1e999",
]
_BAD_LABELS = ["abc", "1:2", "nan", "inf", "-1e999", "0x1"]
_SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", "\u3000"]
# Every kind of line end ``str.splitlines`` knows, '\r\n' among them.
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def _libsvm_text(draw):
    """LIBSVM text with ragged whitespace, mixed line ends (the last line
    may have none), blank and label-only lines, stored zeros, unusual index
    spellings and 17-digit values; half the inputs then take one to three
    flaws: a malformed label, a malformed or non-finite feature token, or a
    swapped or repeated one."""
    label_set = draw(st.sampled_from(_LABEL_SETS))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])
            continue
        indices = sorted(draw(st.sets(st.integers(1, 60), max_size=8)))
        pairs = [f"{draw(st.sampled_from(_INDEX_FORMS))(idx)}:{draw(_VALUES)}" for idx in indices]
        rows.append([draw(st.sampled_from(label_set))] + pairs)
    filled = [row for row in rows if row]
    if filled and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            tokens = draw(st.sampled_from(filled))
            flaw = draw(st.sampled_from(["label", "token", "swap", "repeat"]))
            if flaw == "label":
                tokens[0] = draw(st.sampled_from(_BAD_LABELS))
            elif flaw == "token":
                tokens.append(draw(st.sampled_from(_BAD_TOKENS)))
            elif len(tokens) > 2:
                tokens[1:3] = tokens[2:0:-1] if flaw == "swap" else tokens[1:2] * 2
    lines = []
    for tokens in rows:
        line = draw(st.sampled_from(["", " ", "\t"]))
        for token in tokens:
            line += token + draw(st.sampled_from(_SEPARATORS))
        lines.append(line + draw(st.sampled_from(_LINE_ENDS)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("".join(_LINE_ENDS))
    return "".join(lines)


def _parse_outcome(parse, text, num_features):
    """The arrays a parse gives, or its exception's type, message and line."""
    try:
        d = parse(text, num_features=num_features)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    A = d.a_tilde
    return d.num_features, *(arr.tobytes() for arr in (A.row_offsets, A.col_indices, A.values, d.labels))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    text=_libsvm_text(),
    num_features=st.sampled_from([None, None, 60, 2]),
    chunk_chars=st.sampled_from([1, 12, 40, casgd.sparse._CHUNK_CHARS]),
)
def test_parse_matches_token_by_token_reference(text, num_features, chunk_chars):
    """Byte-identical arrays, or the same error, as the token-by-token
    parser; small chunks put errors in later chunks, and cut the text next
    to every kind of line end."""
    expected = _parse_outcome(_reference_parse, text, num_features)
    with mock.patch.object(casgd.sparse, "_CHUNK_CHARS", chunk_chars):
        got = _parse_outcome(parse_libsvm, text, num_features)
    assert got == expected


@pytest.mark.parametrize("line_end", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
@pytest.mark.parametrize("flaw", [f"+1 {t}" for t in _BAD_TOKENS] + [f"{t} 3:1" for t in _BAD_LABELS])
def test_each_malformed_kind_in_a_later_chunk(flaw, line_end):
    """Each kind of flaw on line 26 of 30, in a late chunk, after a non-finite
    value on line 20 (an error raised only once every line has parsed), with
    each line end the chunks are cut at."""
    lines = [f"{'+1' if i % 2 else '-1'} 2:0.5 {3 + i % 5}:1.25e-3 40:7" for i in range(30)]
    lines[19] = "-1 2:inf"
    lines[25] = flaw
    text = line_end.join(lines)
    expected = _parse_outcome(_reference_parse, text, None)
    assert isinstance(expected[0], type) and expected[2] in (20, 26)
    with mock.patch.object(casgd.sparse, "_CHUNK_CHARS", 64):
        assert _parse_outcome(parse_libsvm, text, None) == expected


def _bulk_results(parse, *args):
    """``parse(*args)``'s outcome, and whether each ``_plain_decimals`` call
    converted its token class in bulk, in call order (index, value, ...)."""
    real, bulk = casgd.sparse._plain_decimals, []

    def spy(*spy_args):
        numbers = real(*spy_args)
        bulk.append(numbers is not None)
        return numbers

    with mock.patch.object(casgd.sparse, "_plain_decimals", spy):
        return _parse_outcome(parse, *args), bulk


def test_reference_agrees_on_the_perfbench_shapes():
    """The benchmark inputs' two kinds of values, binary and 17-digit
    gaussian, over many chunks.  Every chunk converts its indices in bulk,
    and its values too when they are binary."""
    for values in ("binary", "gaussian"):
        text = serialize_libsvm(synthetic_dataset(300, 500, 21, seed=3, feature_values=values))
        with mock.patch.object(casgd.sparse, "_CHUNK_CHARS", 2048):
            got, bulk = _bulk_results(parse_libsvm, text, None)
        assert got == _parse_outcome(_reference_parse, text, None)
        assert len(bulk) > 2 and bulk == [True, values == "binary"] * (len(bulk) // 2)


# Inputs at the bounds of the bulk conversion: one token class of a chunk
# converts in bulk only when every token of it is 1 to 18 ASCII digits.
_PLAIN_BOUNDS = {
    "1 digit": "+1 1:1 2:0 9:9\n-1 3:7",
    "15 digits": "+1 100000000000000:999999999999999 100000000000007:123456789012345\n-1 999999999999999:100000000000000",
    # 2**53 + 1 and 2**53 + 3 are ties that round to even.
    "16 digits": "+1 1000000000000000:9007199254740993 1000000000000001:9007199254740995\n-1 9999999999999999:9999999999999999",
    # The most the bulk path takes; 123456789012345672 is a tie.
    "18 digits": "+1 100000000000000000:999999999999999999 100000000000000001:123456789012345672\n-1 999999999999999999:900719925474099267",
    # One more than the bulk path takes; the first value and the last index's
    # value exceed int64.
    "19 digits": "+1 1000000000000000000:9999999999999999999 9223372036854775807:9223372036854775809\n-1 1000000000000000001:1000000000000000001",
    "leading zeros, 19 characters": "+1 0000000000000000007:0000000000000000007 8:0 9:00\n-1 007:000000000000000001",
    "leading zeros, 18 characters": "+1 000000000000000007:000000000000000007 8:0 9:00\n-1 007:00",
    "index 0": "+1 1:1\n-1 0:1",
    "index 00": "+1 1:1\n-1 00:1",
    "signed tokens": "+1 +3:-4 5:+6\n-1 2:-0",
    "signs inside tokens": "+1 3:1+2",
    "sign inside an index": "+1 3:1 5-1:2",
}


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("chunk_chars", [12, 40, casgd.sparse._CHUNK_CHARS])
@pytest.mark.parametrize("name", sorted(_PLAIN_BOUNDS))
def test_plain_decimals_at_their_bounds(name, chunk_chars, line_end):
    text = _PLAIN_BOUNDS[name].replace("\n", line_end)
    expected = _parse_outcome(_reference_parse, text, None)
    with mock.patch.object(casgd.sparse, "_CHUNK_CHARS", chunk_chars):
        got, bulk = _bulk_results(parse_libsvm, text, None)
    assert got == expected
    if name in ("1 digit", "15 digits", "16 digits", "18 digits", "leading zeros, 18 characters"):
        assert bulk and all(bulk)


@pytest.mark.parametrize("line_end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("chunk_chars", [12, 40])
def test_bulk_and_token_by_token_chunks_alternate(chunk_chars, line_end):
    """Runs of four lines cycle through plain tokens, decimal values and
    signed indices, so small chunks take the bulk and the token-by-token
    path in turn; lines that end in '\r' alone or in '\r\n' are chunked too."""
    kinds = ["{label} {i}:{i}7 {j}:1", "{label} {i}:-{i}.5 {j}:1e-3", "{label} +{i}:3 {j}:{i}"]
    lines = [kinds[k // 4 % 3].format(label="+1" if k % 2 else "-1", i=k + 1, j=k + 40) for k in range(30)]
    text = line_end.join(lines)
    expected = _parse_outcome(_reference_parse, text, None)
    with mock.patch.object(casgd.sparse, "_CHUNK_CHARS", chunk_chars):
        got, bulk = _bulk_results(parse_libsvm, text, None)
    assert got == expected
    assert True in bulk and False in bulk


class TestCsrMatrix:
    def test_invariant_violations(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            CsrMatrix(1, 2, [0, 1], [2], [1.0])
        with pytest.raises(ValueError, match="row_offsets"):
            CsrMatrix(1, 2, [0, 2], [0], [1.0])

    def test_arrays_immutable(self):
        mat = csr_from_dense([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            mat.values[0] = 9.0

    def test_row_slices_and_dense_rows_match_row(self, ragged_libsvm):
        A = ragged_libsvm.a_tilde
        dense = A.to_dense()
        assert len(A.row_slices) == A.num_rows
        for i, (cols, vals) in enumerate(A.row_slices):
            ref_cols, ref_vals = A.row(i)
            assert cols.tobytes() == ref_cols.tobytes() and vals.tobytes() == ref_vals.tobytes()
            expected = np.zeros(A.num_cols)
            expected[ref_cols] = ref_vals
            assert dense[i].tobytes() == expected.tobytes()

    def test_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0, 3.0], [0.0, 0.0, 0.0], [2.0, -1.0, 0.0]])
        np.testing.assert_array_equal(csr_from_dense(dense).to_dense(), dense)

    def test_labels_must_be_unit(self):
        mat = csr_from_dense([[1.0]])
        with pytest.raises(ValueError, match="exactly -1.0 or \\+1.0"):
            LabeledDataset.build(mat, [0.5])


class TestSampledMatvec:
    def test_spec_examples(self, tiny):
        out = sampled_matvec(tiny, RowBlockSelector(np.array([0, 1])), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, -2.0], rtol=0, atol=0)
        out = sampled_matvec(tiny, RowBlockSelector(np.array([0, 1])), np.zeros(2))
        np.testing.assert_array_equal(out, [0.0, 0.0])
        out = sampled_matvec(tiny, RowBlockSelector(np.array([1])), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [-8.0])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_selector_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, 150, 80)
        x = rng.standard_normal(80)
        sel = RowBlockSelector(np.arange(150))
        expected = d.a_tilde.to_dense() @ x
        np.testing.assert_allclose(sampled_matvec(d, sel, x), expected, rtol=1e-13, atol=1e-13)

    def test_column_slices_sum_to_full(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 60, 40)
        x = rng.standard_normal(40)
        sel = RowBlockSelector(rng.choice(60, size=9, replace=False))
        full = sampled_matvec(d, sel, x)
        cuts = [0, 7, 13, 28, 40]
        total = np.zeros(len(sel.indices))
        for window, c0, c1 in zip(_column_slices(d, cuts), cuts[:-1], cuts[1:]):
            total += sampled_matvec(window, sel, x[c0:c1])
        np.testing.assert_allclose(total, full, rtol=1e-13, atol=1e-13)

    def test_selector_out_of_range(self, tiny):
        with pytest.raises(IndexError):
            sampled_matvec(tiny, RowBlockSelector(np.array([2])), np.zeros(2))

    def test_length_mismatch(self, tiny):
        with pytest.raises(ValueError):
            sampled_matvec(tiny, RowBlockSelector(np.array([0])), np.zeros(3))

    def test_selector_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RowBlockSelector(np.array([1, 1]))


class TestSampledMatvecTranspose:
    def test_spec_examples(self, tiny):
        sel = RowBlockSelector(np.array([0, 1]))
        out = sampled_matvec_transpose(tiny, sel, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(out, [0.5, -1.0])
        np.testing.assert_array_equal(sampled_matvec_transpose(tiny, sel, np.zeros(2)), [0.0, 0.0])
        out = sampled_matvec_transpose(tiny, RowBlockSelector(np.array([0])), np.array([2.0]))
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        d = random_dataset(rng, 50, 30)
        ids = rng.choice(50, size=6, replace=False)
        v = rng.standard_normal(6)
        expected = d.a_tilde.to_dense()[ids].T @ v
        out = sampled_matvec_transpose(d, RowBlockSelector(ids), v)
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)

    def test_column_window(self):
        rng = np.random.default_rng(12)
        d = random_dataset(rng, 40, 25)
        ids = rng.choice(40, size=5, replace=False)
        v = rng.standard_normal(5)
        full = sampled_matvec_transpose(d, RowBlockSelector(ids), v)
        (window,) = _column_slices(d, [10, 18])
        np.testing.assert_array_equal(sampled_matvec_transpose(window, RowBlockSelector(ids), v), full[10:18])

    def test_v_length_mismatch(self, tiny):
        with pytest.raises(ValueError):
            sampled_matvec_transpose(tiny, RowBlockSelector(np.array([0])), np.zeros(2))


class TestGramBlock:
    def test_spec_examples(self, tiny):
        sel = RowBlockSelector(np.array([0, 1]))
        np.testing.assert_array_equal(gram_block(tiny, sel, sel), [[1.0, 0.0], [0.0, 4.0]])
        # disjoint sparsity rows give a zero off-diagonal block
        assert gram_block(tiny, RowBlockSelector(np.array([0])), RowBlockSelector(np.array([1])))[0, 0] == 0.0
        d = dataset_from_scaled([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0])
        out = gram_block(d, RowBlockSelector(np.array([0])), RowBlockSelector(np.array([1])))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_transpose_exact(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 30, 20)
        s1 = RowBlockSelector(rng.choice(30, size=4, replace=False))
        s2 = RowBlockSelector(rng.choice(30, size=3, replace=False))
        np.testing.assert_array_equal(gram_block(d, s1, s2).T, gram_block(d, s2, s1))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 30, 20)
        a = rng.choice(30, size=4, replace=False)
        b = rng.choice(30, size=5, replace=False)
        dense = d.a_tilde.to_dense()
        expected = dense[a] @ dense[b].T
        out = gram_block(d, RowBlockSelector(a), RowBlockSelector(b))
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)

    def test_column_slices_sum_to_full(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 30, 24)
        a = RowBlockSelector(rng.choice(30, size=3, replace=False))
        b = RowBlockSelector(rng.choice(30, size=3, replace=False))
        full = gram_block(d, a, b)
        total = np.zeros_like(full)
        for window in _column_slices(d, [0, 5, 16, 24]):
            total += gram_block(window, a, b)
        np.testing.assert_allclose(total, full, rtol=1e-13, atol=1e-13)


def _brute_lower_matches(dataset, ids, b):
    supports = [set(dataset.a_tilde.row(i)[0].tolist()) for i in ids]
    total = 0
    for j in range(len(ids)):
        for q in range(len(ids)):
            if j // b > q // b:
                total += len(supports[j] & supports[q])
    return total


def _pattern_matches(d, ids, b):
    """``gram_lower_blocks``' match counts from the CSR pattern, which its
    dense path reads: ``d``'s dense cache is kept at any size."""
    with mock.patch.object(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", math.inf):
        assert d.a_tilde.dense_cache() is not None
    return gram_lower_blocks(d, ids, b)[1]


class TestRoundKernels:
    @pytest.mark.parametrize("sb,b", [(2, 1), (3, 1), (8, 1), (12, 4), (40, 1), (36, 6)])
    def test_gram_lower_blocks_matches_gram_block(self, sb, b):
        rng = np.random.default_rng(sb * 7 + b)
        d = random_dataset(rng, 80, 30)
        ids = rng.choice(80, size=sb, replace=False)
        out, matches = gram_lower_blocks(d, ids, b)
        s = sb // b
        for j in range(s):
            for i in range(s):
                block = out[j * b : (j + 1) * b, i * b : (i + 1) * b]
                if i < j:
                    want = gram_block(
                        d,
                        RowBlockSelector(ids[j * b : (j + 1) * b]),
                        RowBlockSelector(ids[i * b : (i + 1) * b]),
                    )
                    np.testing.assert_allclose(block, want, rtol=1e-13, atol=1e-13)
                else:
                    np.testing.assert_array_equal(block, np.zeros((b, b)))
        assert matches == _brute_lower_matches(d, ids, b)

    def test_gram_scipy_path_without_dense_cache(self):
        # m*n above the dense-cache bound forces the column-sort kernel
        rng = np.random.default_rng(40)
        d = synthetic_dataset(700, 3000, 5, seed=1)
        assert d.a_tilde.dense_cache() is None
        ids = rng.choice(700, size=40, replace=False)
        out, matches = gram_lower_blocks(d, ids, 1)
        for j in range(3, 40, 11):
            for i in range(0, j, 7):
                want = gram_block(d, RowBlockSelector(ids[j : j + 1]), RowBlockSelector(ids[i : i + 1]))
                assert out[j, i].tobytes() == want[0, 0].tobytes()
        assert matches == _brute_lower_matches(d, ids, 1)

    def test_lower_block_matches_with_repeated_rows(self):
        d = synthetic_dataset(30, 15, 4, seed=3)
        ids = np.array([4, 9, 4, 2, 9, 4])  # repeats across batches of size 2
        assert _pattern_matches(d, ids, 2) == _brute_lower_matches(d, ids, 2)

    @pytest.mark.parametrize("b", [1, 2, 5])
    @pytest.mark.parametrize("s", [1, 2, 7])
    @pytest.mark.parametrize("n", [3, 12, 400, 100_000])
    def test_lower_block_matches_from_the_pattern(self, n, s, b):
        # Column counts of the pattern rows per round and per batch, or the
        # rows' stored entries in place of the latter at b = 1; without a
        # dense cache the pairs count them.  n = 3 is far below the round's
        # nonzeros, 100000 far above; empty rows and rows drawn twice,
        # within a batch and across batches, are in every round.
        rng = np.random.default_rng(n + 10 * s + b)
        dense = rng.standard_normal((30, n)) * (rng.random((30, n)) < min(1.0, 6 / n))
        dense[:4] = 0.0
        if n >= 400:
            dense[4:, :3] = 1.0  # a few columns that most rows share
        d = dataset_from_scaled(dense, np.ones(30))
        ids = rng.choice(30, size=s * b, replace=True)
        ids[0] = 0  # an empty row
        if s * b > 2:
            ids[-1] = ids[-2]
        want = _brute_lower_matches(d, ids, b)
        assert _pattern_matches(d, ids, b) == want
        with mock.patch.object(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0):
            sparse = dataset_from_scaled(dense, np.ones(30))
            assert sparse.a_tilde.dense_cache() is None
        assert gram_lower_blocks(sparse, ids, b)[1] == want

    @pytest.mark.parametrize("sb,b", [(2, 1), (6, 1), (6, 3), (32, 1), (32, 16), (40, 1), (256, 1), (256, 16)])
    def test_csr_gram_scatter_leaves_only_lower_blocks(self, ragged_libsvm, sb, b):
        # Without a dense cache the lower blocks equal scipy's CSR product
        # exactly (exact zeros included); diagonal and upper blocks keep what
        # was there; a second round on the same buffer leaves nothing stale.
        # Rows 0, 1 and 2 of the set are empty, stored zeros only and long.
        d = ragged_libsvm
        assert d.a_tilde.dense_cache() is None
        R = d.a_tilde.scipy_csr
        rng = np.random.default_rng(sb + b)
        blocks = np.arange(sb) // b
        lower = blocks[:, None] > blocks[None, :]
        sentinel = -7.25
        out = np.full((sb, sb), sentinel)
        seen = set()
        for second in (False, True):
            ids = rng.choice(d.num_points, size=sb)
            ids[0] = ids[b] = ids[b // 2] = 2  # repeated across and, at b > 1, within batches
            if second:
                ids[-2:] = [1, 0]
            # The solver's column ranks pass their gathered rows, its row
            # layout none; the kernel reads the CSR arrays either way.
            rows = gather_rows(d, ids, sb // b) if second else None
            got, matches = gram_lower_blocks(d, ids, b, out=out, rows=rows)
            assert got is out
            ref = (R[ids] @ R[ids].T).toarray()
            np.testing.assert_allclose(ref, R[ids].toarray() @ R[ids].toarray().T, rtol=1e-13, atol=1e-13)
            assert out[lower].tobytes() == ref[lower].tobytes()
            assert (out[~lower] == sentinel).all()
            # The reference kernel sums in the same order as scipy's product.
            later, earlier = RowBlockSelector(np.unique(ids[b : 2 * b])), RowBlockSelector(np.unique(ids[:b]))
            want = (R[later.indices] @ R[earlier.indices].T).toarray()
            assert gram_block(d, later, earlier).tobytes() == want.tobytes()
            assert matches == _brute_lower_matches(d, ids, b)
            seen.update(np.sign(out[lower]).tolist())
        assert seen >= {0.0, 1.0}

    @pytest.mark.parametrize("s", [2, 8, 64])
    @pytest.mark.parametrize("b", [1, 3])
    def test_block_of_rounds_matches_round_by_round(self, s, b):
        # K rounds at once give each round's blocks bitwise and its match
        # count from the CSR pattern, under a dense cache (one stacked
        # product, or at s*b >= 64 one ``dsyrk`` per round into its own
        # slice of the block's buffer) and without one (one sort over every
        # round's entries):
        # stored zeros match, empty rows do not, and rows repeat within and
        # across batches and rounds.  A column window of the block gives a
        # column rank's blocks and counts.
        sb = s * b
        for m, n in ((90, 30), (800, 3000)):
            d = ragged_libsvm_dataset(m, n, seed=10 * s + b)
            assert (d.a_tilde.dense_cache() is None) == (n == 3000)
            block = np.random.default_rng(s + b).choice(m, size=(5, sb))
            block[0, : 2 * b] = 1  # stored zeros only, in two batches
            block[1, 0] = 0  # an empty row
            block[2, b] = block[2, b - 1]  # one row in two batches
            block[3] = block[2]
            if b > 1:
                block[4, 1] = block[4, 0]  # one row twice in a batch
            window = _column_slices(d, [0, 2, n * 19 // 30, n])[1]
            for data in (d, window):
                # The block's rows, indexed by round, are each round's rows.
                rows = gather_rows(data, block, s)
                for k, ids in enumerate(block):
                    one = gather_rows(data, ids, s)
                    assert type(rows[k]) is type(one)
                    assert _form_bytes(rows[k]) == _form_bytes(one)
                out, matches = gram_lower_blocks(data, block, b, rows=rows)
                assert out.shape == (5, sb, sb)
                assert matches.dtype == np.int64 and matches.shape == (5,)
                assert matches.tolist() == [_brute_lower_matches(data, ids, b) for ids in block]
                for k, ids in enumerate(block):
                    one, count = gram_lower_blocks(data, ids, b)
                    assert out[k].tobytes() == one.tobytes() and count == matches[k]
                assert matches.sum() > 0

    def test_dense_gram_mask_built_once(self):
        # Short rounds build their lower-block mask once per shape, and
        # ``dsyrk`` rounds the flat indices of their diagonal-block cells;
        # neither kind of round builds the other's.
        rng = np.random.default_rng(13)
        d = random_dataset(rng, 60, 25)
        casgd.sparse._block_tril_mask.cache_clear()
        casgd.sparse._diagonal_block_cells.cache_clear()
        for size in (12, casgd.sparse._SYRK_MIN_ROWS + 2):
            ids = rng.choice(60, size=size)
            gram_lower_blocks(d, ids, 3)
            gram_lower_blocks(d, ids[::-1].copy(), 3)
        for cache in (casgd.sparse._block_tril_mask, casgd.sparse._diagonal_block_cells):
            info = cache.cache_info()
            assert (info.misses, info.hits) == (1, 1)
        cells = casgd.sparse._diagonal_block_cells(6, 3)
        assert cells.tolist() == [0, 6, 7, 12, 13, 14, 21, 27, 28, 33, 34, 35]
        assert casgd.sparse._diagonal_block_cells(4, 1).tolist() == [0, 5, 10, 15]

    @pytest.mark.parametrize("form", [None, list, np.ndarray])
    def test_batch_scores_matches_sampled_matvec(self, form):
        rng = np.random.default_rng(21)
        d = random_dataset(rng, 90, 40)
        x = rng.standard_normal(40)
        for size in (3, 50):
            ids = rng.choice(90, size=size, replace=False)
            rows = None if form is None else gather_rows(d, ids, 1 if form is list else size)
            assert form is None or isinstance(rows, form)
            want = sampled_matvec(d, RowBlockSelector(ids), x)
            out = np.empty(size)
            got = batch_scores(d, ids, x, rows=rows, out=out)
            assert got is out
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_list_scores_of_empty_rows_are_plus_zero(self, ragged_libsvm):
        # Rows score by ``ddot``, which refuses empty vectors; an empty row
        # scores +0.0, as ``ndarray.dot`` gives it.
        d = ragged_libsvm
        empty = np.flatnonzero(d.a_tilde.row_nnz == 0)
        assert len(empty) > 1
        ids = np.concatenate([empty, [1, 2, 3]])
        x = np.random.default_rng(3).standard_normal(d.num_features)
        rows = gather_rows(d, ids, 1)
        assert isinstance(rows, list)
        got = batch_scores(d, ids, x, rows=rows)
        assert not got[: len(empty)].any() and not np.signbit(got[: len(empty)]).any()
        np.testing.assert_allclose(got, sampled_matvec(d, RowBlockSelector(ids), x), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("s", [2, 8])
    @pytest.mark.parametrize("b", [1, 3])
    def test_dense_gram_matches_merge_path(self, monkeypatch, s, b):
        # Two copies of one dataset: one keeps the dense cache (BLAS Gram),
        # the other is built with the cache disabled (column-sort kernel).
        rng = np.random.default_rng(100 * s + b)
        d = random_dataset(rng, 60, 25)
        ids = rng.choice(60, size=s * b, replace=True)
        ids[b:2 * b] = ids[:b]  # a batch repeating the previous one
        dense_out, dense_matches = gram_lower_blocks(d, ids, b)
        assert d.a_tilde.dense_cache() is not None
        monkeypatch.setattr(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0)
        merged = dataset_from_scaled(d.a_tilde.to_dense(), d.labels)
        assert merged.a_tilde.dense_cache() is None
        merge_out, merge_matches = gram_lower_blocks(merged, ids, b)
        assert dense_matches == merge_matches == _brute_lower_matches(d, ids, b)
        scale = np.abs(merge_out).max()
        np.testing.assert_allclose(dense_out, merge_out, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("batches", [None, 1, 40])
    def test_round_kernels_without_dense_cache(self, batches):
        # Updates go row by row (no rows, or one batch's list of ids), or
        # through the gathered entries in one scatter, with the same bits.
        rng = np.random.default_rng(int(batches == 40))
        d = synthetic_dataset(700, 3000, 5, seed=6)
        assert d.a_tilde.dense_cache() is None
        ids = rng.choice(700, size=40, replace=False)
        ids[1] = ids[0]  # a row drawn twice adds twice
        rows = None if batches is None else gather_rows(d, ids, batches)
        assert rows is None or (isinstance(rows, RoundEntries) if batches > 1 else _form_bytes(rows) == _form_bytes(_row_pairs(d, ids)))
        x = rng.standard_normal(3000)
        got = batch_scores(d, ids, x, rows=rows)
        want = [np.dot(d.a_tilde.row(i)[1], x[d.a_tilde.row(i)[0]]) for i in ids]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        w = rng.standard_normal(40)
        want = x.copy()
        for k, i in enumerate(ids):
            cols, vals = d.a_tilde.row(i)
            want[cols] += w[k] * vals
        add_rows_transpose(d, ids, w, x, rows=rows)
        assert x.tobytes() == want.tobytes()

    def test_add_rows_transpose_dense_rows(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 50, 20)
        ids = rng.choice(50, size=12, replace=False)
        rows = gather_rows(d, ids, 4)
        assert isinstance(rows, np.ndarray)
        x = rng.standard_normal(20)
        w = rng.standard_normal(12)
        want = x + sampled_matvec_transpose(d, RowBlockSelector(ids), w)
        add_rows_transpose(d, ids, w, x, rows=rows)
        np.testing.assert_allclose(x, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("b", [1, 3])
    def test_dense_row_update_matches_scatter(self, b):
        # One-batch rounds under a dense cache add each dense row to all of
        # x; the scatter adds each row's stored entries to its own columns.
        # Rows: empty, stored zeros only, ragged, and one drawn twice.  At
        # eta0 = 0 every weight is 0.0, so each product is +0.0 or (for a
        # negative value) -0.0, on and off the rows' columns.
        d = ragged_libsvm_dataset(150, 40, seed=b)
        assert d.a_tilde.dense_cache() is not None
        rng = np.random.default_rng(b)
        ids = rng.choice(150, size=b, replace=False)
        window = _column_slices(d, [0, 13, 27, 40])[1]
        for data in (d, window):
            A = data.a_tilde
            for first in ([0], [1], [int(ids[0])]):
                batch = np.array(first + ids[1:].tolist() if b > 1 else first)
                if b > 1:
                    batch[-1] = batch[0]  # a repeated id
                rows = gather_rows(data, batch, 1)
                assert all(cols == slice(None) and len(vals) == A.num_cols for cols, vals in rows)
                for eta0 in (0.0, 1.0):
                    w = eta0 / 150 * rng.random(b)
                    x = rng.standard_normal(A.num_cols)
                    x[::3] = 0.0  # +0.0 entries, on and off the rows' columns
                    want = x.copy()
                    for k, i in enumerate(batch):
                        cols, vals = A.row(i)
                        want[cols] += w[k] * vals
                    add_rows_transpose(data, batch, w, x, rows=rows)
                    assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [100, 112])
    @pytest.mark.parametrize("sb,b", [(512, 1), (300, 3), (66, 3)])
    def test_syrk_gram_matches_full_product(self, sb, b, n):
        # A round of at least ``_SYRK_MIN_ROWS`` dense rows is one in-place
        # ``dsyrk``.  Its strictly-lower blocks are the full product's, and
        # the diagonal and upper blocks keep their sentinels: the cells of
        # the diagonal blocks that the call writes are put back.
        assert sb >= casgd.sparse._SYRK_MIN_ROWS
        d = synthetic_dataset(1500, n, 12, seed=n + b)
        dense = d.a_tilde.dense_cache()
        assert dense is not None
        ids = np.random.default_rng(sb).choice(1500, size=sb)
        ids[b] = ids[0]  # a row in two batches
        blocks = np.arange(sb) // b
        lower = blocks[:, None] > blocks[None, :]
        sentinel = -7.25
        out = np.full((sb, sb), sentinel)
        with mock.patch.object(casgd.sparse, "dsyrk", wraps=casgd.sparse.dsyrk) as spy:
            got, _ = gram_lower_blocks(d, ids, b, out=out)
        assert spy.call_count == 1
        assert got is out
        assert (out[~lower] == sentinel).all()
        rows = dense[ids]
        full = rows @ rows.T
        if sb % 8:
            # The full product is numpy's own syrk call, over the other
            # triangle.  Off multiples of 8 rows OpenBLAS's x86-64 kernels
            # round a few entries differently (at most 107 of 44550 at 300
            # rows, each by at most a quarter ulp of the largest entry).
            np.testing.assert_allclose(out[lower], full[lower], rtol=0, atol=np.spacing(np.abs(full).max()))
        else:
            assert out[lower].tobytes() == full[lower].tobytes()

    def test_syrk_gram_over_no_columns(self):
        # BLAS refuses a ``dsyrk`` over no columns; such a round's lower
        # blocks are zero, from the stacked product.
        sb = casgd.sparse._SYRK_MIN_ROWS
        d = LabeledDataset.build(CsrMatrix(sb, 0, np.zeros(sb + 1, np.int64), np.zeros(0, np.int64), np.zeros(0)), np.ones(sb))
        assert d.a_tilde.dense_cache() is not None
        out = np.full((sb, sb), -7.25)
        gram_lower_blocks(d, np.arange(sb), 2, out=out)
        lower = casgd.sparse._block_tril_mask(sb, 2)
        assert not out[lower].any() and (out[~lower] == -7.25).all()

    @pytest.mark.parametrize("sb", [12, 128])
    @pytest.mark.parametrize("dense", [True, False])
    def test_gram_rejects_an_out_it_would_not_fill(self, sb, dense):
        # ``dsyrk`` writes a copy of any out that is not float64, and so
        # never fills it; a buffer of the wrong shape would take the wrong
        # rounds' blocks.  Both raise before any product, on every path.
        rng = np.random.default_rng(sb)
        d = random_dataset(rng, 90, 25)
        if not dense:
            with mock.patch.object(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0):
                d = dataset_from_scaled(d.a_tilde.to_dense(), d.labels)
                assert d.a_tilde.dense_cache() is None
        block = rng.choice(90, size=(2, sb))
        for out in (
            np.zeros((2, sb, sb), np.float32),
            np.zeros((2, sb // 2, 2 * sb)),
            np.zeros((1, sb, sb)),
            np.zeros((2, sb, 2 * sb))[:, :, :sb],
        ):
            with pytest.raises(ValueError, match="out must be"):
                gram_lower_blocks(d, block, 2, out=out)
        out = np.zeros((2, sb, sb))
        assert gram_lower_blocks(d, block, 2, out=out)[0] is out


def test_import_loads_the_blas_extension_without_scipy_linalg():
    # The kernels' ``ddot``, ``daxpy`` and ``dsyrk`` come from scipy.linalg's
    # compiled extension alone; the package's ``__init__`` costs about 8 MiB
    # of RSS.  A later ``import scipy.linalg`` reuses the loaded extension.
    code = (
        "import sys, casgd.sparse\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.blas\n"
        "print(scipy.linalg.blas._fblas.ddot is casgd.sparse.ddot)\n"
        "print(scipy.linalg.blas._fblas.dsyrk is casgd.sparse.dsyrk)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True", "True"]


@pytest.fixture(scope="module")
def ragged_libsvm():
    """LIBSVM-parsed rows above the dense-cache bound: lengths 0 to 40 over a
    few shared columns, stored zeros (``k:0``) and both labels.  Row 0 is
    empty, row 1 holds only stored zeros, row 2 is long."""
    rng = np.random.default_rng(14)
    lines = ["+1", "-1 4:0 9:0 5000:0"]
    for i in range(2, 300):
        k = 40 if i == 2 else int(rng.integers(0, 41))
        cols = np.unique(np.concatenate([rng.integers(1, 13, size=k // 2), rng.integers(1, 8001, size=k - k // 2)]))
        vals = np.where(rng.random(len(cols)) < 0.1, 0.0, rng.standard_normal(len(cols)))
        pairs = " ".join(f"{c}:{v:.17g}" for c, v in zip(cols, vals))
        lines.append(f"{rng.choice(['+1', '-1'])} {pairs}")
    d = parse_libsvm("\n".join(lines), num_features=8000)
    assert len(d.a_tilde.row(0)[0]) == 0 and not d.a_tilde.row(1)[1].any()
    return d


@pytest.fixture(scope="module")
def cached_and_uncached():
    rng = np.random.default_rng(30)
    cached = random_dataset(rng, 80, 30)
    uncached = synthetic_dataset(700, 3000, 5, seed=6)
    assert cached.a_tilde.dense_cache() is not None and uncached.a_tilde.dense_cache() is None
    window = LabeledDataset.build(cached.a_tilde.column_window(5, 17), cached.labels)
    assert window.a_tilde.dense_cache().base is not None  # a view of the full cache
    return {"cached": cached, "uncached": uncached, "window": window}


# (dataset, rows, batches, form): gather_rows' rule.  One batch gives a
# list; more give dense rows under a dense cache and entries without one.
GATHER_CASES = [
    ("cached", 1, 1, list),
    ("uncached", 1, 1, list),
    ("cached", 40, 1, list),
    ("uncached", 40, 1, list),
    ("uncached", 1, 2, RoundEntries),
    ("uncached", 2, 2, RoundEntries),
    ("uncached", 40, 3, RoundEntries),
    ("cached", 2, 2, np.ndarray),
    ("window", 8, 2, np.ndarray),
]


@pytest.mark.parametrize("name,size,batches,form", GATHER_CASES)
def test_gather_rows_form(cached_and_uncached, name, size, batches, form):
    d = cached_and_uncached[name]
    ids = np.random.default_rng(size).choice(d.num_points, size=size, replace=False)
    rows = gather_rows(d, ids, batches)
    assert type(rows) is form
    if form is list:
        assert _form_bytes(rows) == _form_bytes(_row_pairs(d, ids))
    else:
        got = _entries_dense(rows, size, d.num_features) if form is RoundEntries else rows
        assert got.tobytes() == d.a_tilde.to_dense()[ids].tobytes()
