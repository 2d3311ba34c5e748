import numpy as np
import pytest
import scipy.sparse

from casgd import (
    CsrMatrix,
    LabeledDataset,
    LibsvmParseError,
    RowBlockSelector,
    gram_block,
    parse_libsvm,
    sampled_matvec,
    sampled_matvec_transpose,
    serialize_libsvm,
)
from casgd.datagen import synthetic_dataset
import casgd.sparse
from casgd.sparse import _lower_block_matches, add_rows_transpose, batch_scores, gather_rows, gram_lower_blocks

from conftest import assert_datasets_equal, dataset_from_scaled, ragged_libsvm_dataset, random_dataset


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
        d = parse_libsvm("0 1:1.0", label_policy="zero_one")
        assert d.labels[0] == -1.0
        assert d.a_tilde.row(0)[1][0] == -1.0

    def test_auto_policy_detects_zero_one(self):
        d = parse_libsvm("0 1:1.0\n1 1:2.0")
        np.testing.assert_array_equal(d.labels, [-1.0, 1.0])

    def test_auto_policy_rejects_mixed(self):
        with pytest.raises(ValueError, match="cannot infer"):
            parse_libsvm("2 1:1.0")

    def test_malformed_pair_reports_line(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("+1 1:1.0\n-1 broken\n")
        assert err.value.line == 2

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("+1 2:1.0 2:3.0")
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("+1 3:1.0 2:3.0")

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

    def test_unknown_label_under_policy(self):
        with pytest.raises(LibsvmParseError, match="label"):
            parse_libsvm("0 1:1.0", label_policy="plus_minus")

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
        mat = CsrMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            mat.values[0] = 9.0

    def test_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0, 3.0], [0.0, 0.0, 0.0], [2.0, -1.0, 0.0]])
        np.testing.assert_array_equal(CsrMatrix.from_dense(dense).to_dense(), dense)

    def test_labels_must_be_unit(self):
        mat = CsrMatrix.from_dense([[1.0]])
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
        assert _lower_block_matches(d.a_tilde, ids, 2) == _brute_lower_matches(d, ids, 2)

    @pytest.mark.parametrize("b", [1, 2, 5])
    @pytest.mark.parametrize("s", [1, 2, 7])
    @pytest.mark.parametrize("n", [3, 12, 400, 100_000])
    def test_lower_block_matches_by_sort_and_bincount(self, n, s, b):
        # One bincount over (batch, column) keys, or column keys alone at
        # b = 1.  n = 3 is far below the round's nonzeros, 100000 far above;
        # empty rows and rows drawn twice, within a batch and across
        # batches, are in every round.
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
        assert _lower_block_matches(d.a_tilde, ids, b) == _brute_lower_matches(d, ids, b)

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

    @pytest.mark.parametrize("s", [2, 8])
    @pytest.mark.parametrize("b", [1, 3])
    def test_block_of_rounds_matches_round_by_round(self, s, b):
        # K rounds at once give each round's blocks bitwise and its match
        # count from the CSR pattern, under a dense cache (one stacked
        # product) and without one (one sort over every round's entries):
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
                    if scipy.sparse.issparse(one):
                        rows_k, one = rows[k].toarray(), one.toarray()
                    else:
                        rows_k, one = np.asarray(rows[k]), np.asarray(one)
                    assert rows_k.tobytes() == one.tobytes()
                out, matches = gram_lower_blocks(data, block, b, rows=rows)
                assert out.shape == (5, sb, sb)
                assert matches.dtype == np.int64 and matches.shape == (5,)
                assert matches.tolist() == [_brute_lower_matches(data, ids, b) for ids in block]
                for k, ids in enumerate(block):
                    one, count = gram_lower_blocks(data, ids, b)
                    assert out[k].tobytes() == one.tobytes() and count == matches[k]
                assert matches.sum() > 0

    def test_dense_gram_mask_built_once(self):
        rng = np.random.default_rng(13)
        d = random_dataset(rng, 60, 25)
        ids = rng.choice(60, size=12, replace=False)
        casgd.sparse._block_tril_mask.cache_clear()
        gram_lower_blocks(d, ids, 3)
        gram_lower_blocks(d, ids[::-1].copy(), 3)
        info = casgd.sparse._block_tril_mask.cache_info()
        assert (info.misses, info.hits) == (1, 1)

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
        # through gathered CSR rows in one scatter.
        rng = np.random.default_rng(int(batches == 40))
        d = synthetic_dataset(700, 3000, 5, seed=6)
        assert d.a_tilde.dense_cache() is None
        ids = rng.choice(700, size=40, replace=False)
        ids[1] = ids[0]  # a row drawn twice adds twice
        rows = None if batches is None else gather_rows(d, ids, batches)
        assert rows is None or (scipy.sparse.issparse(rows) if batches > 1 else rows == ids.tolist())
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
        np.testing.assert_array_equal(x, want)

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


# (dataset, rows, batches, form): gather_rows' rule at each boundary.
GATHER_CASES = [
    ("cached", 1, 1, list),
    ("uncached", 1, 1, list),
    ("cached", 40, 1, list),
    ("uncached", 40, 1, list),
    ("uncached", 32, 2, list),
    ("uncached", 33, 3, scipy.sparse.csr_matrix),
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
        assert rows == ids.tolist() and gather_rows(d, rows, batches) is rows
    else:
        got = rows.toarray() if scipy.sparse.issparse(rows) else rows
        np.testing.assert_array_equal(got, d.a_tilde.to_dense()[ids])
