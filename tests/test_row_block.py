"""``RowBlock``, the row layout's one gather per block, against the per-block
kernels it replaced (``oracles``): keys, supports, slots, allgather words,
Gram blocks and match counts must match them byte for byte, and each
round's scores one ``ndarray.dot`` per row (rows of equal counts) or the
CSR product (others).  The gathers they read match a gather through an
index of every entry, by whole rows or not."""

import numpy as np
import pytest

import casgd.solvers
import casgd.sparse
import oracles
from casgd import BLOCK_ROW, CsrMatrix, LabeledDataset, SolverConfig, partition, run_casgd
from casgd.datagen import synthetic_dataset
from casgd.sparse import RowBlock, add_rows_transpose, batch_scores, gather_rows, gram_lower_blocks
from conftest import ragged_libsvm_dataset


def _block(d, K: int, sb: int, seed: int) -> np.ndarray:
    """K rounds of sb rows, alternately of the set's shortest and longest
    rows, rows repeating within and across batches and rounds (the third
    round repeats the first), the empty row 0 and row 1 of stored zeros in
    the first round.  Columns 0-2 are shared by
    many rows, so some (round, column) hold three or more entries."""
    rng = np.random.default_rng(seed)
    by_size = np.argsort(d.a_tilde.row_nnz, kind="stable")
    half = len(by_size) // 2
    block = np.stack([rng.choice(by_size[:half] if k % 2 == 0 else by_size[half:], size=sb) for k in range(K)])
    block[0, :2] = [0, 1]
    if K > 2:
        block[2] = block[0]
    return block


def _ranked(s: int, b: int, width: int) -> np.ndarray:
    """A round's positions rank after rank, each rank's rows batch after batch."""
    p = b // width
    return (np.arange(0, s * b, b)[None, :, None] + np.arange(0, b, width)[:, None, None] + np.arange(width)).reshape(p, -1)


def _per_row(arr, counts):
    return np.split(arr, np.cumsum(counts)[:-1])


def _row_dots(d, ids, x) -> np.ndarray:
    """One ``ndarray.dot`` per row, plus 0.0: a -0.0 dot reads +0.0, as in
    ``np.vecdot``."""
    return np.array([vals.dot(x[cols]) for cols, vals in (d.a_tilde.row(i) for i in ids)]) + 0.0


def _csr_scores(d, ids, x) -> np.ndarray:
    """scipy's CSR product of the rows: each row summed from +0.0 in column order."""
    return d.a_tilde.scipy_csr[ids] @ x


def _row_of(d, ids):
    """A round's ``RoundEntries.row_of``: None when its rows hold equally
    many entries, else each entry's row."""
    counts = d.a_tilde.row_nnz[ids]
    return None if (counts == counts[0]).all() else np.repeat(np.arange(len(ids)), counts)


def _same_row_of(got, want) -> bool:
    return got is None and want is None or got is not None and want is not None and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("n", [40, 3000])
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("K", [1, 3, None])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_matches_the_kernels_it_replaced(monkeypatch, p, K, s, n, width):
    d = ragged_libsvm_dataset(800, n, seed=p + s + n)
    A = d.a_tilde
    dense = A.dense_cache() is not None
    assert dense == (n == 40)
    b = p * width
    sb = s * b
    if K is None:
        owners = 1 if s > 1 and dense else 0
        # As the solver sizes a row block: dense rows only for a Gram owner.
        K = casgd.solvers._rounds_per_block(sb, n, bool(owners), owners, A.nnz / d.num_points)
    block = _block(d, K, sb, seed=K + s)
    # A ratio between the short rounds' entries and the long ones'.
    monkeypatch.setattr(casgd.sparse, "_SUPPORT_MIN_RATIO", n / (6 * sb))
    entries = RowBlock(d, block, b, width)
    assert len(entries.rounds) == len(entries.supports) == K

    # With or without a dense cache, rounds take a support by the ratio.
    supports = oracles.column_support(d, block, ratio=casgd.sparse._SUPPORT_MIN_RATIO)
    if K > 1:
        # Rounds on both sides of the ratio.
        assert {support is None for support in supports} == {True, False}
    ranked = _ranked(s, b, width)
    keys, vals, counts = oracles.rank_entries(d, block[:, ranked.ravel()], s * width)
    keys, vals = _per_row(keys, counts.ravel()), _per_row(vals, counts.ravel())
    # Each round position's place in the oracle's rank-after-rank order, and its rank.
    rows = np.argsort(ranked.ravel())
    rank_of = rows // (s * width)
    for k, (here, support, old) in enumerate(zip(entries.rounds, entries.supports, supports)):
        # Each row's entries in batch order, as the oracle keyed them rank after rank.
        old_keys = [keys[k * sb + at] for at in rows]
        old_vals = [vals[k * sb + at] for at in rows]
        assert np.concatenate(old_vals).tobytes() == here.vals.tobytes()
        assert np.concatenate([A.row(i)[0] for i in block[k]]).tobytes() == here.cols.tobytes()
        assert _same_row_of(here.row_of, _row_of(d, block[k]))
        rank = np.repeat(rank_of, A.row_nnz[block[k]])
        if old is None:
            assert support is None
            assert np.concatenate(old_keys).tobytes() == here.keys.tobytes()
            continue
        assert support.tobytes() == old.tobytes()
        # A support round's keys: rank * len(support) + the column's slot in
        # the support.
        if len(support):
            ranks, slots = np.divmod(here.keys, len(support))
            assert ranks.tobytes() == rank.tobytes()
            assert slots.tobytes() == np.searchsorted(old, here.cols).tobytes()
        else:
            assert len(here.keys) == 0

    # Scores and updates over each round's entries, with or without a dense
    # cache: a round of equal counts takes one vecdot, with the bits of one
    # dot per row, any other the bits of the CSR product; an update the bits
    # of the row-by-row list.  Without a dense cache ``gather_rows`` gives a
    # column rank the same entries at s > 1.
    x = np.random.default_rng(5).standard_normal(n)
    w = np.random.default_rng(6).standard_normal(sb)
    for k, here in enumerate(entries.rounds):
        want = _row_dots(d, block[k], x) if here.row_of is None else _csr_scores(d, block[k], x)
        assert batch_scores(d, block[k], x, here).tobytes() == want.tobytes()
        got, want = x.copy(), x.copy()
        add_rows_transpose(d, block[k], w, got, here)
        add_rows_transpose(d, block[k], w, want, [A.row(i) for i in block[k]])
        assert got.tobytes() == want.tobytes()
        if s > 1 and not dense:
            one = gather_rows(d, block[k], s)
            assert one.cols.tobytes() == here.cols.tobytes() and one.vals.tobytes() == here.vals.tobytes()
            assert _same_row_of(one.row_of, here.row_of)

    # The allgather's words: per round, the entries of every rank's rows of
    # its first s-1 batches, as the oracle's ranked values held them; 0 at
    # s = 1.
    heads = [sum(len(vals[k * sb + r * s * width + at]) for r in range(p) for at in range((s - 1) * width)) for k in range(K)]
    assert entries.head_words == heads and all(type(words) is int for words in entries.head_words)
    assert (s == 1) == (heads == [0] * K)
    if s == 1 or dense:
        assert all(here.targets is None for here in entries.rounds)
        return
    # Gram blocks and matches, round by round from the block's pairs, and
    # for the block at once, equal the oracle's pairing of every entry.
    want, matches = oracles.gram_pairs(d, block, b)
    assert entries.matches.dtype == np.int64 and entries.matches.tobytes() == matches.tobytes()
    G = np.zeros((sb, sb))
    for k, here in enumerate(entries.rounds):
        assert len(here.targets) == matches[k]
        entries.add_gram(k, G)
        assert G.tobytes() == want[k].tobytes()
        entries.clear_gram(k, G)
        assert not G.any()
    out, count = gram_lower_blocks(d, block, b)
    assert out.tobytes() == want.tobytes() and count.tobytes() == matches.tobytes()
    assert matches.sum() > 0


@pytest.mark.parametrize("x_kind", ["gaussian", "negative zero"])
@pytest.mark.parametrize(
    "rows,p,width,s",
    [
        ("uniform", 4, 4, 4),
        ("uniform", 4, 9, 4),
        ("one entry", 2, 3, 2),
        ("one entry", 1, 40, 2),
        ("empty", 2, 2, 3),
        ("ragged", 4, 4, 4),
        ("ragged", 4, 9, 4),
        ("ragged", 1, 40, 2),
        ("ragged", 2, 1, 1),
        ("mixed", 4, 9, 4),
        ("mixed", 2, 1, 1),
    ],
)
def test_scores_match_row_dots_or_the_csr_product(rows, p, width, s, x_kind):
    # Every round's ``batch_scores`` over its ``RoundEntries``: blocks of
    # rows of equal counts (one ``np.vecdot`` per round) equal one
    # ``ndarray.dot`` per row, byte for byte after + 0.0, as do blocks of
    # one entry per row and of empty rows only; ragged rounds (one
    # ``np.bincount`` by row) equal scipy's CSR product byte for byte, with
    # the empty row 0 and row 1 of stored zeros; and a ragged block's middle
    # round holds rows of one count.  x of -0.0 makes every product a
    # signed zero.
    d = {
        "uniform": lambda: synthetic_dataset(700, 3000, 5, seed=p + width),
        "one entry": lambda: synthetic_dataset(700, 3000, 1, seed=p + width),
    }.get(rows, lambda: ragged_libsvm_dataset(800, 3000, seed=p + width))()
    A = d.a_tilde
    assert A.dense_cache() is None
    b = p * width
    sb = s * b
    block = np.zeros((3, sb), dtype=np.int64) if rows == "empty" else _block(d, 3, sb, seed=sb)
    if rows == "mixed":
        block[1] = np.resize(np.flatnonzero(A.row_nnz == 5), sb)
    equal = [_row_of(d, ids) is None for ids in block]
    assert equal == {"ragged": [False] * 3, "mixed": [False, True, False]}.get(rows, [True] * 3)
    x = np.random.default_rng(sb).standard_normal(3000) if x_kind == "gaussian" else np.full(3000, -0.0)
    entries = RowBlock(d, block, b, width)
    for ids, here, same in zip(block, entries.rounds, equal):
        assert _same_row_of(here.row_of, _row_of(d, ids))
        out = np.full(sb, np.nan)
        assert batch_scores(d, ids, x, here, out) is out
        if same:
            # One vecdot: +0.0 for a -0.0 dot, with no further rounding.
            assert out.tobytes() == _row_dots(d, ids, x).tobytes()
        else:
            assert out.tobytes() == _csr_scores(d, ids, x).tobytes()


def test_pairs_skip_single_entries_and_keep_triples(monkeypatch):
    # Columns 0-2 hold three or more entries of a round across batches;
    # every other column of these rows only one.  The pairs are those of
    # the shared columns alone, each later entry with every entry of an
    # earlier batch, in ascending column order.
    monkeypatch.setattr(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0)
    lines = ["+1 1:1 2:2 10:3", "+1 1:4 11:5", "+1 1:6 2:7 12:8", "+1 3:9 13:10", "+1 2:12 3:11"]
    d = casgd.parse_libsvm("\n".join(lines), num_features=20)
    entries = RowBlock(d, np.arange(5)[None], 1, 1)
    here = entries.rounds[0]
    # Column 0 (rows 0, 1, 2): 3 pairs; column 1 (rows 0, 2, 4): 3; column 2 (rows 3, 4): 1.
    assert entries.matches.tolist() == [7]
    assert here.targets.tolist() == [1 * 5 + 0, 2 * 5 + 0, 2 * 5 + 1, 2 * 5 + 0, 4 * 5 + 0, 4 * 5 + 2, 4 * 5 + 3]
    assert here.products.tolist() == [4.0, 6.0, 24.0, 14.0, 24.0, 84.0, 99.0]


@pytest.mark.parametrize("s", [2, 8])
@pytest.mark.parametrize("p", [1, 2])
def test_row_gram_is_clear_at_every_round(monkeypatch, p, s):
    # Without a dense cache each row round adds its pairs into G and clears
    # what they wrote once the recurrence has read it, so G's strictly lower
    # blocks are zero whenever a round starts forming its Gram, and after
    # the last round.  The run equals one with a Gram buffer zeroed whole
    # before every round.
    d = ragged_libsvm_dataset(800, 3000, seed=p + s)
    assert d.a_tilde.dense_cache() is None
    real = RowBlock.add_gram
    b = 2 * p
    buffers = []

    def spy(entries, k, G):
        assert G.shape == (s * b,) * 2
        blocks = np.arange(s * b) // b
        assert not G[blocks[:, None] > blocks[None, :]].any()
        buffers.append(G)
        real(entries, k, G)

    cfg = SolverConfig(eta0=1.0, b=b, s=s, total_iterations=12 * s, layout=BLOCK_ROW, p=p, seed=3)
    want = run_casgd(d, cfg, partition(d, BLOCK_ROW, p))
    monkeypatch.setattr(RowBlock, "add_gram", spy)
    got = run_casgd(d, cfg, partition(d, BLOCK_ROW, p))
    assert len(buffers) == 12 and all(G is buffers[0] for G in buffers)
    assert not buffers[0].any()
    assert got.final_x.tobytes() == want.final_x.tobytes() and got.counters == want.counters

    def zeroed(entries, k, G):
        G[...] = 0.0
        real(entries, k, G)

    monkeypatch.setattr(RowBlock, "add_gram", zeroed)
    fresh = run_casgd(d, cfg, partition(d, BLOCK_ROW, p))
    assert fresh.final_x.tobytes() == got.final_x.tobytes() and fresh.trace == got.trace


def _one_width(m: int, n: int, width: int, seed: int, short: int | None = None) -> CsrMatrix:
    """m rows of ``width`` entries over n columns, with stored +0.0 and -0.0
    among the values; row ``short`` (when given) loses its last entry."""
    rng = np.random.default_rng(seed)
    cols = [np.sort(rng.choice(n, width, replace=False)) for _ in range(m)]
    if short is not None:
        cols[short] = cols[short][:-1]
    counts = [len(c) for c in cols]
    vals = rng.standard_normal(sum(counts))
    vals[rng.random(len(vals)) < 0.2] = 0.0
    vals[::7] = -0.0
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return CsrMatrix(m, n, offsets, np.concatenate(cols), vals)


def _lower_matches(A: CsrMatrix, ids: np.ndarray, b: int) -> np.ndarray:
    """Each round's shared columns over pairs of rows in different batches."""
    supports = [[set(A.row(i)[0].tolist()) for i in r] for r in ids]
    return np.array(
        [sum(len(sup[j] & sup[q]) for j in range(len(sup)) for q in range(j) if j // b > q // b) for sup in supports],
        dtype=np.int64,
    )


@pytest.mark.parametrize(
    "m,n,width,short",
    [(5, 4, 0, None), (6, 4, 1, None), (30, 50, 20, None), (1, 9, 3, None), (8, 6, 6, None), (30, 50, 20, 13)],
    ids=["width 0", "width 1", "width 20", "one row", "every column", "one row short"],
)
def test_gathers_match_the_entry_index(m, n, width, short):
    # ``_gather`` and ``_gather_rounds`` give the bytes of a gather through
    # an index of every entry: by whole-row takes on a matrix of one width
    # (stored zeros, -0.0 and repeated ids included), and by the index on a
    # matrix with one row short of the rest.  Column windows give them too:
    # all of them are of one width when every row holds every column, and
    # the narrower ones are ragged otherwise.  The dense Gram's match counts,
    # from the CSR pattern, count the same shared columns on all of them;
    # the pattern is built on first use (here, the first window), not with
    # the dense cache, and a window's is a view of its parent's.
    A = _one_width(m, n, width, seed=m + width, short=short)
    assert A.dense_cache() is not None and "_pattern" not in vars(A)
    assert A.width == (width if short is None else None)
    rng = np.random.default_rng(m)
    ids = rng.integers(0, m, size=(3, 4))
    ids[0, 1] = ids[0, 0]
    ids[2] = ids[0]
    if short is not None:
        ids[1, 2] = short
    cuts = [0, n // 3, n]
    for W in [A] + [A.column_window(lo, hi) for lo, hi in zip(cuts, cuts[1:])]:
        want = oracles.entry_gather(W, ids.ravel())
        assert [a.tobytes() for a in casgd.sparse._gather(W, ids.ravel())] == [a.tobytes() for a in want]
        (starts, cols, vals, row_of), edges, row_ofs = casgd.sparse._gather_rounds(W, ids)
        assert [a.tobytes() for a in (starts, cols, vals, row_of)] == [a.tobytes() for a in want]
        assert edges == want[0][::4].tolist()
        for r, local in zip(ids, row_ofs):
            counts = W.row_nnz[r]
            assert _same_row_of(local, None if (counts == counts[0]).all() else np.repeat(np.arange(4), counts))
        d = LabeledDataset.build(W, np.ones(m))
        for b in (1, 2):
            assert gram_lower_blocks(d, ids, b)[1].tobytes() == _lower_matches(W, ids, b).tobytes()
            assert gram_lower_blocks(d, ids[0], b)[1] == _lower_matches(W, ids[:1], b)[0]
        if W is not A:
            assert np.shares_memory(W._pattern, A._pattern)
