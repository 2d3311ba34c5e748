import numpy as np
import pytest

from casgd import BLOCK_COLUMN, BLOCK_ROW, LayoutDescriptor, VirtualCluster, partition
from casgd.cluster import tree_message_count

from conftest import random_dataset
from oracles import rank_range, rank_view, reassemble


class TestLayout:
    def test_column_split_even(self):
        layout = LayoutDescriptor.build(BLOCK_COLUMN, 2, num_rows=9, num_cols=4)
        assert layout.boundaries == ((0, 2), (2, 4))

    def test_row_split_near_equal(self):
        layout = LayoutDescriptor.build(BLOCK_ROW, 2, num_rows=5, num_cols=9)
        assert layout.boundaries == ((0, 3), (3, 5))

    def test_too_many_ranks(self):
        with pytest.raises(ValueError, match="exceeds"):
            LayoutDescriptor.build(BLOCK_COLUMN, 5, num_rows=9, num_cols=4)
        with pytest.raises(ValueError, match="exceeds"):
            LayoutDescriptor.build(BLOCK_ROW, 6, num_rows=5, num_cols=9)

    def test_ranges_partition(self):
        layout = LayoutDescriptor.build(BLOCK_ROW, 3, num_rows=11, num_cols=2)
        spans = [stop - start for start, stop in layout.boundaries]
        assert sum(spans) == 11
        assert max(spans) - min(spans) <= 1
        assert layout.boundaries[0][0] == 0 and layout.boundaries[-1][1] == 11


def test_tree_message_count():
    assert [tree_message_count(p) for p in (1, 2, 3, 4, 5, 8)] == [0, 1, 2, 2, 3, 3]


class TestAllreduce:
    def test_single_rank_identity(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_COLUMN, 1)
        buf = np.array([1.0, 2.0])
        out = cluster.allreduce_sum([buf])
        np.testing.assert_array_equal(out, buf)
        assert cluster.counters.messages == 0
        assert cluster.counters.collectives == 1
        assert cluster.counters.words_moved == 2

    def test_four_ranks_basis_vectors(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_COLUMN, 4)
        buffers = [np.zeros(3) for _ in range(4)]
        for rank in range(3):
            buffers[rank][rank] = 1.0
        out = cluster.allreduce_sum(buffers)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])
        assert cluster.counters.messages == 2

    def test_three_rank_scalars(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_COLUMN, 3)
        out = cluster.allreduce_sum([np.array([1.5]), np.array([2.5]), np.array([-1.0])])
        np.testing.assert_array_equal(out, [3.0])
        assert cluster.counters.messages == 2

    def test_matches_sequential_sum(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 20, 10)
        cluster = partition(d, BLOCK_COLUMN, 8)
        buffers = [rng.standard_normal(50) for _ in range(8)]
        out = cluster.allreduce_sum(buffers)
        np.testing.assert_allclose(out, np.sum(buffers, axis=0), rtol=1e-13, atol=1e-13)

    def test_length_mismatch(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_COLUMN, 2)
        with pytest.raises(ValueError, match="equal length"):
            cluster.allreduce_sum([np.zeros(2), np.zeros(3)])

    def test_input_buffers_unchanged_with_multiple_ranks(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_COLUMN, 2)
        a, b = np.array([1.0]), np.array([2.0])
        cluster.allreduce_sum([a, b])
        assert a[0] == 1.0 and b[0] == 2.0

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    def test_tree_sum_bits_without_copies(self, p):
        # The tree's first level forms fresh sums and later levels add into
        # them: the bits of copying every buffer and summing the copies in
        # place, with the inputs left as they were and shared by no result.
        rng = np.random.default_rng(20 + p)
        d = random_dataset(rng, 10, 6)
        buffers = [rng.standard_normal(33) * 10.0 ** rng.integers(-8, 8, size=33) for _ in range(p)]
        before = [buf.copy() for buf in buffers]
        work = [buf.copy() for buf in buffers]
        step = 1
        while step < p:
            for rank in range(0, p - step, 2 * step):
                work[rank] += work[rank + step]
            step *= 2
        out = partition(d, BLOCK_ROW, p).allreduce_sum(buffers)
        assert out.tobytes() == work[0].tobytes()
        assert all(buf.tobytes() == old.tobytes() for buf, old in zip(buffers, before))
        assert not any(np.shares_memory(out, buf) for buf in buffers)


class TestAllgather:
    def test_single_rank_identity(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_ROW, 1)
        np.testing.assert_array_equal(cluster.allgather([np.array([3.0, 4.0])]), [3.0, 4.0])

    def test_two_ranks_concatenate(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_ROW, 2)
        out = cluster.allgather([np.array([1.0]), np.array([2.0])])
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_words_count_total_length(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_ROW, 3)
        cluster.allgather([np.zeros(2), np.zeros(1), np.zeros(3)])
        assert cluster.counters.words_moved == 6
        assert cluster.counters.messages == 2
        assert cluster.counters.collectives == 1


class TestCombine:
    def test_single_rank_counts_without_a_collective_call(self, monkeypatch):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        reference = partition(d, BLOCK_ROW, 1)
        buf = np.array([1.0, 2.0, 3.0])
        reference.allreduce_sum([buf])
        reference.allgather([buf])

        def no_call(*args):
            raise AssertionError("a single rank makes no collective call")

        monkeypatch.setattr(VirtualCluster, "allreduce_sum", no_call)
        monkeypatch.setattr(VirtualCluster, "allgather", no_call)
        cluster = partition(d, BLOCK_ROW, 1)
        assert cluster.combine([buf]) is buf
        assert cluster.combine([buf], gather=True) is buf
        assert cluster.counters == reference.counters

    def test_local_collectives_counted_at_once(self):
        # r collectives of one rank counted at once read as r counted one
        # by one through ``combine``; ranks that exchange data cannot.
        d = random_dataset(np.random.default_rng(0), 10, 6)
        one, each = partition(d, BLOCK_COLUMN, 1), partition(d, BLOCK_COLUMN, 1)
        one.count_local(7, 5)
        for _ in range(5):
            each.combine([np.zeros(7)])
        assert one.counters == each.counters
        assert one.counters.as_dict() == {"flops": 0, "words": 35, "messages": 0, "collectives": 5, "sig_evals": 0}
        with pytest.raises(ValueError, match="one rank"):
            partition(d, BLOCK_COLUMN, 2).count_local(7)

    @pytest.mark.parametrize("p", [2, 3])
    def test_ranks_match_the_collectives(self, p):
        rng = np.random.default_rng(p)
        d = random_dataset(rng, 10, 6)
        bufs = [rng.standard_normal(4) for _ in range(p)]
        cluster, reference = partition(d, BLOCK_ROW, p), partition(d, BLOCK_ROW, p)
        np.testing.assert_array_equal(cluster.combine(bufs), reference.allreduce_sum(bufs))
        np.testing.assert_array_equal(cluster.combine(bufs, gather=True), reference.allgather(bufs))
        assert cluster.counters == reference.counters


    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_stated_words_are_counted(self, p):
        # A reduction of a few entries of a longer vector counts the
        # vector's length; the sums are those of the entries sent.
        rng = np.random.default_rng(10 + p)
        d = random_dataset(rng, 10, 6)
        bufs = [rng.standard_normal(4) for _ in range(p)]
        cluster, reference = partition(d, BLOCK_ROW, p), partition(d, BLOCK_ROW, p)
        np.testing.assert_array_equal(cluster.combine(bufs, words=1000), reference.combine(bufs))
        assert cluster.counters.words_moved == 1000
        assert reference.counters.words_moved == 4
        assert cluster.counters.messages == reference.counters.messages == tree_message_count(p)
        assert cluster.counters.collectives == reference.counters.collectives == 1
        np.testing.assert_array_equal(cluster.allreduce_sum(bufs, words=77), reference.allreduce_sum(bufs))
        assert cluster.counters.words_moved == 1077


class TestCounters:
    def test_counter_law_mixed_collectives(self):
        d = random_dataset(np.random.default_rng(0), 12, 8)
        for p in (1, 2, 3, 4, 8):
            cluster = partition(d, BLOCK_ROW, p)
            for _ in range(5):
                cluster.allreduce_sum([np.zeros(2)] * p)
            for _ in range(3):
                cluster.allgather([np.zeros(1)] * p)
            assert cluster.counters.collectives == 8
            assert cluster.counters.messages == 8 * tree_message_count(p)

    def test_monotone_and_reset(self):
        d = random_dataset(np.random.default_rng(0), 10, 6)
        cluster = partition(d, BLOCK_COLUMN, 2)
        seen = []
        for _ in range(4):
            cluster.allreduce_sum([np.zeros(3), np.zeros(3)])
            c = cluster.counters
            seen.append((c.flops, c.words_moved, c.messages, c.collectives, c.sig_evals))
        assert seen == sorted(seen)
        cluster.counters.reset()
        assert cluster.counters.as_dict() == {"flops": 0, "words": 0, "messages": 0, "collectives": 0, "sig_evals": 0}


class TestReconstruction:
    @pytest.mark.parametrize("kind,p", [(BLOCK_COLUMN, 1), (BLOCK_COLUMN, 3), (BLOCK_ROW, 1), (BLOCK_ROW, 4)])
    def test_reassemble_identity(self, kind, p):
        d = random_dataset(np.random.default_rng(2), 17, 9)
        cluster = partition(d, kind, p)
        rebuilt = reassemble(cluster)
        np.testing.assert_array_equal(rebuilt.row_offsets, d.a_tilde.row_offsets)
        np.testing.assert_array_equal(rebuilt.col_indices, d.a_tilde.col_indices)
        np.testing.assert_array_equal(rebuilt.values, d.a_tilde.values)

    def test_column_views_slice_rows_on_access(self):
        d = random_dataset(np.random.default_rng(4), 23, 11)
        cluster = partition(d, BLOCK_COLUMN, 3)
        for rank in range(3):
            start, stop = rank_range(cluster, rank)
            rows = rank_view(cluster, rank).row_slices
            assert not isinstance(rows, tuple) and len(rows) == 23
            for i in range(23):
                cols, vals = d.a_tilde.row(i)
                keep = (cols >= start) & (cols < stop)
                np.testing.assert_array_equal(rows[i][0], cols[keep] - start)
                np.testing.assert_array_equal(rows[i][1], vals[keep])

    def test_single_rank_view_is_whole_matrix(self):
        d = random_dataset(np.random.default_rng(3), 8, 5)
        cluster = partition(d, BLOCK_COLUMN, 1)
        view = rank_view(cluster, 0)
        np.testing.assert_array_equal(view.to_dense(), d.a_tilde.to_dense())
