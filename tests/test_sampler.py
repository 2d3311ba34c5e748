import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from casgd import BatchStream
from casgd.sampling import _draws, _sample_windows, _walk_columns, _walk_rows


class TestDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=40))
    def test_same_config_same_sequence(self, seed, m):
        b = min(3, m)
        a = BatchStream(seed, m, b)
        c = BatchStream(seed, m, b)
        for _ in range(5):
            assert a.next_indices() == c.next_indices()

    def test_same_cursor_same_selector(self):
        stream = BatchStream(42, 10, 3)
        assert stream.peek_indices(1) == stream.peek_indices(1)

    def test_known_sequence_frozen(self):
        # Counter-based draws are platform independent; freeze one sequence.
        stream = BatchStream(7, 6, 2)
        got = [stream.next_indices() for _ in range(3)]
        assert got == [[3, 5], [0, 4], [4, 1]]

    def test_batches_are_lists_of_ints(self):
        # Observers that wrap the stream test a batch's truth value, which an
        # ndarray does not have; each batch is a list of Python ints.
        stream = BatchStream(5, 20, 4, rank_ranges=[(0, 10), (10, 20)])
        for batch in [*stream.peek_indices(3), stream.next_indices()]:
            assert type(batch) is list and len(batch) == 4
            assert all(type(i) is int for i in batch)


class TestWithoutReplacement:
    def test_full_batch_is_permutation(self):
        for seed in range(20):
            assert sorted(BatchStream(seed, 4, 4).next_indices()) == [0, 1, 2, 3]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=30))
    def test_batch_distinct_in_range(self, seed, m):
        b = max(1, m // 2)
        ids = BatchStream(seed, m, b).next_indices()
        assert len(set(ids)) == b
        assert all(0 <= i < m for i in ids)


class TestPerRank:
    def test_stratified_batch(self):
        stream = BatchStream(3, 4, 2, rank_ranges=[(0, 2), (2, 4)])
        for _ in range(10):
            ids = stream.next_indices()
            assert 0 <= ids[0] < 2
            assert 2 <= ids[1] < 4

    def test_p_must_divide_b(self):
        with pytest.raises(ValueError, match="divide"):
            BatchStream(0, 9, 3, rank_ranges=[(0, 5), (5, 9)])

    def test_local_rows_must_cover_share(self):
        with pytest.raises(ValueError, match="fewer"):
            BatchStream(0, 5, 4, rank_ranges=[(0, 4), (4, 5)])

    def test_ranges_alone_select_per_rank_draws(self):
        ranges = [(0, 6), (6, 12)]
        stream = BatchStream(8, 12, 4, rank_ranges=ranges)
        assert [stream.next_indices() for _ in range(20)] == [_oracle(8, 12, 4, t, ranges) for t in range(20)]
        # Without ranges the same stream draws over all rows.
        stream = BatchStream(8, 12, 4)
        assert [stream.next_indices() for _ in range(20)] == [_oracle(8, 12, 4, t) for t in range(20)]

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError, match="at least one range"):
            BatchStream(0, 5, 2, rank_ranges=[])


class TestPeek:
    def test_peek_one_equals_next(self):
        a = BatchStream(11, 12, 3)
        b = BatchStream(11, 12, 3)
        assert a.peek_indices(1)[0] == b.next_indices()

    def test_peek_then_step_matches(self):
        stream = BatchStream(13, 15, 2)
        ahead = stream.peek_indices(4)
        stepped = [stream.next_indices() for _ in range(4)]
        assert ahead == stepped

    def test_advance_skips(self):
        a = BatchStream(17, 9, 2)
        b = BatchStream(17, 9, 2)
        a.peek_indices(3)
        a.advance(3)
        for _ in range(3):
            b.next_indices()
        assert a.next_indices() == b.next_indices()


class TestUniformity:
    def test_singleton_positions_uniform_chisquare(self):
        # s=3 lookahead windows of singleton batches over [0, 5)
        m, rounds = 5, 33334
        stream = BatchStream(123, m, 1)
        counts = np.zeros((3, m), dtype=np.int64)
        for _ in range(rounds):
            for pos, ids in enumerate(stream.peek_indices(3)):
                counts[pos, ids[0]] += 1
            stream.advance(3)
        for pos in range(3):
            _, pvalue = scipy.stats.chisquare(counts[pos])
            assert pvalue > 0.001

    def test_marginal_frequency_within_5_sigma(self):
        m, b, batches = 10, 3, 100_000
        stream = BatchStream(99, m, b)
        counts = np.zeros(m, dtype=np.int64)
        for _ in range(batches):
            for i in stream.next_indices():
                counts[i] += 1
        expect = batches * b / m
        sigma = np.sqrt(batches * (b / m) * (1 - b / m))
        assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_cursor_is_not_a_constructor_argument():
    # A stream starts at cursor 0; only ``advance`` and ``next_indices`` move it.
    with pytest.raises(TypeError):
        BatchStream(0, 5, 2, cursor=3)
    assert BatchStream(0, 5, 2).cursor == 0


def test_batch_size_bounds():
    with pytest.raises(ValueError):
        BatchStream(0, 5, 6)
    with pytest.raises(ValueError):
        BatchStream(0, 5, 0)


# Scalar reference generator: one SplitMix64 draw and one dict walk at a
# time, exactly as the stream defines its indices.
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _sample_window(seed: int, first_draw: int, count: int, start: int, size: int) -> list[int]:
    displaced: dict[int, int] = {}
    out = []
    for k in range(count):
        j = k + _mix64((seed + (first_draw + k + 1) * _GOLDEN) & _MASK) % (size - k)
        pick = displaced.get(j, j)
        displaced[j] = displaced.get(k, k)
        out.append(start + pick)
    return out


def _oracle(seed, m, b, cursor, rank_ranges=None):
    if rank_ranges is None:
        return _sample_window(seed, cursor * b, b, 0, m)
    local = b // len(rank_ranges)
    picks = []
    for rank, (start, stop) in enumerate(rank_ranges):
        picks.extend(_sample_window(seed, cursor * b + rank * local, local, start, stop - start))
    return picks


class TestBlockSamplerMatchesScalarOracle:
    M = 21
    SEEDS = (0, 2**64 - 1, -12345)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("b", [1, 7, M])
    def test_global_next_indices_across_block_boundaries(self, seed, b):
        stream = BatchStream(seed, self.M, b)
        # enough cursors to cross at least two blocks of cached draws
        cursors = 2 * (4096 // b) + 5
        for cursor in range(cursors):
            assert stream.next_indices() == _oracle(seed, self.M, b, cursor), cursor

    # (b, rank ranges) with p dividing b: one rank, 7 ranks of 3 rows, 3 ranks of 7
    PER_RANK = [(1, [(0, M)]), (7, [(3 * r, 3 * r + 3) for r in range(7)]), (M, [(0, 7), (7, 14), (14, 21)])]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("b,ranges", PER_RANK)
    def test_per_rank_peek_then_advance(self, seed, b, ranges):
        stream = BatchStream(seed, self.M, b, rank_ranges=ranges)
        cursor = 0
        for s in (3, 4096 // b - 1, 5, 600, 2):
            ahead = stream.peek_indices(s)
            assert ahead == [_oracle(seed, self.M, b, cursor + t, ranges) for t in range(s)]
            stream.advance(s)
            cursor += s
        assert stream.next_indices() == _oracle(seed, self.M, b, cursor, ranges)

    def test_selector_views_match_oracle_from_a_jumped_cursor(self):
        stream = BatchStream(99, self.M, 7)
        stream.advance(10_000)
        assert stream.peek_indices(3) == [_oracle(99, self.M, 7, 10_000 + t) for t in range(3)]
        assert stream.next_indices() == _oracle(99, self.M, 7, 10_000)


@pytest.mark.parametrize("count", range(2, 17))
@pytest.mark.parametrize("size", ["count", "count+1", 50, 2**40])
def test_vector_walk_matches_dict_walk(count, size):
    # The picks of the vector walk must be those of the dict walk, bit for
    # bit, from a full window (every slot drawn) to a huge one.
    size = {"count": count, "count+1": count + 1}.get(size, size)
    draws = _draws(count * 1000 + size % 997, 0, 500 * count).reshape(500, count)
    slots = (draws % (size - np.arange(count, dtype=np.uint64)) + np.arange(count, dtype=np.uint64)).astype(np.int64)
    want = _walk_rows(slots)
    got = _walk_columns(slots)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert all(len(set(row)) == count and max(row) < size for row in got.tolist())
    np.testing.assert_array_equal(_sample_windows(draws, 5, size), want + 5)
