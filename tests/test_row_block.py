"""``RowBlock``, the row layout's one gather per block, against the per-block
kernels it replaced (``row_oracles``): keys, supports, slots, payload heads,
Gram blocks and match counts must match them byte for byte."""

import numpy as np
import pytest

import casgd.solvers
import casgd.sparse
import row_oracles
from casgd import BLOCK_ROW, SolverConfig, partition, run_casgd
from casgd.sparse import RoundEntries, RowBlock, batch_scores, gather_rows, gram_lower_blocks
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


@pytest.mark.parametrize("payload", [False, True])
@pytest.mark.parametrize("n", [40, 3000])
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("K", [1, 3, None])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_matches_the_kernels_it_replaced(monkeypatch, p, K, s, n, payload):
    d = ragged_libsvm_dataset(800, n, seed=p + s + n)
    A = d.a_tilde
    dense = A.dense_cache() is not None
    assert dense == (n == 40)
    width = 2
    b = p * width
    sb = s * b
    if K is None:
        owners = 1 if payload and s > 1 and dense else 0
        K = casgd.solvers._rounds_per_block(sb, n, dense, owners, A.nnz / d.num_points)
    block = _block(d, K, sb, seed=K + s)
    # A ratio between the short rounds' entries and the long ones'.
    monkeypatch.setattr(casgd.sparse, "_SUPPORT_MIN_RATIO", max(1, round(n / (6 * sb))))
    entries = RowBlock(d, block, b, width, payload)
    assert len(entries.rounds) == len(entries.supports) == K

    dense_rows = dense and s > 1
    supports = row_oracles.column_support(
        d, block, rows=A.dense_cache()[block] if dense_rows else None, ratio=casgd.sparse._SUPPORT_MIN_RATIO
    )
    if not dense_rows and K > 1:
        # Rounds on both sides of the ratio.
        assert {support is None for support in supports} == {True, False}
    ranked = _ranked(s, b, width)
    keys, vals, counts = row_oracles.rank_entries(d, block[:, ranked.ravel()], s * width)
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
        assert here.bounds == np.concatenate(([0], np.cumsum(A.row_nnz[block[k]]))).tolist()
        assert entries.counts[k].tobytes() == A.row_nnz[block[k]].tobytes()
        rank = np.repeat(rank_of, entries.counts[k])
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

    # Score forms: CSR rows as ``gather_rows`` builds them, else one dot per
    # row, with the bits of the row-by-row list.
    x = np.random.default_rng(5).standard_normal(n)
    if dense:
        assert entries.rows is None
    for k in range(K if not dense else 0):
        one = gather_rows(d, block[k], s, s * width)
        rows = entries.rows[k]
        if isinstance(rows, RoundEntries):
            assert isinstance(one, list)
        else:
            assert (rows != one).nnz == 0 and rows.indptr.tobytes() == one.indptr.astype(rows.indptr.dtype).tobytes()
        assert batch_scores(d, block[k], x, rows).tobytes() == batch_scores(d, block[k], x, one).tobytes()

    if not payload:
        return
    # Payload heads: each rank's values of its first s-1 batches, as the
    # oracle's ranked values held them.
    for k, heads in enumerate(entries.heads):
        for r, head in enumerate(heads):
            stretch = k * sb + r * s * width
            want = np.concatenate([np.empty(0)] + vals[stretch : stretch + (s - 1) * width])
            assert head.tobytes() == want.tobytes()
    if s == 1 or dense:
        assert all(here.targets is None for here in entries.rounds)
        return
    # Gram blocks and matches, round by round from the block's pairs, and
    # for the block at once, equal the oracle's pairing of every entry.
    want, matches = row_oracles.gram_pairs(d, block, b)
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


def test_pairs_skip_single_entries_and_keep_triples(monkeypatch):
    # Columns 0-2 hold three or more entries of a round across batches;
    # every other column of these rows only one.  The pairs are those of
    # the shared columns alone, each later entry with every entry of an
    # earlier batch, in ascending column order.
    monkeypatch.setattr(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0)
    lines = ["+1 1:1 2:2 10:3", "+1 1:4 11:5", "+1 1:6 2:7 12:8", "+1 3:9 13:10", "+1 2:12 3:11"]
    d = casgd.parse_libsvm("\n".join(lines), num_features=20)
    entries = RowBlock(d, np.arange(5)[None], 1, 1, True)
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
