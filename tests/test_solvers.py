import math

import numpy as np
import pytest

import casgd
import casgd.cluster
import casgd.model
import casgd.sampling
import casgd.solvers
import casgd.sparse
from casgd import (
    BLOCK_COLUMN,
    BLOCK_ROW,
    ConfigError,
    SolverConfig,
    VirtualCluster,
    parse_libsvm,
    partition,
    relative_solution_error,
    run_casgd,
    run_sgd,
    serialize_libsvm,
)
from casgd.datagen import synthetic_dataset
from casgd.sampling import BatchStream
from casgd.solvers import _SCALAR_SIG_MAX, _apply_row_gradient, _sig_batch, _sig_scalar, epoch_schedule, iterations_per_epoch
from casgd.sparse import _SUPPORT_MIN_RATIO, RowBlock, add_rows_transpose, gather_rows

from conftest import ragged_libsvm_dataset
from oracles import RowBlockSelector, column_support, full_gradient, run_reference


def _col_cluster(d, p=1):
    return partition(d, BLOCK_COLUMN, p)


def _row_cluster(d, p=1):
    return partition(d, BLOCK_ROW, p)


def _drawn(d, cfg, count):
    """The first ``count`` batches of a column-layout run's stream, as selectors."""
    return [RowBlockSelector(np.array(ids)) for ids in BatchStream(cfg.seed, d.num_points, cfg.b).peek_indices(count)]


class TestRunSgd:
    def test_one_full_batch_step(self, tiny):
        cfg = SolverConfig(eta0=1.0, b=2, total_iterations=1)
        drawn = _drawn(tiny, cfg, 1)
        assert sorted(drawn[0].indices.tolist()) == [0, 1]
        run = run_sgd(tiny, cfg, _col_cluster(tiny))
        np.testing.assert_allclose(run.final_x, [0.25, -0.5], rtol=0, atol=1e-15)
        ref = run_reference(tiny, cfg, drawn)
        np.testing.assert_allclose(run.final_x, ref.final_x, rtol=0, atol=1e-15)

    def test_zero_learning_rate(self, tiny):
        cfg = SolverConfig(eta0=0.0, b=1, epochs=3, seed=5)
        run = run_sgd(tiny, cfg, _col_cluster(tiny))
        np.testing.assert_array_equal(run.final_x, [0.0, 0.0])
        for rec in run.trace:
            assert abs(rec.loss - math.log(2)) <= 1e-15

    def test_full_batch_matches_gradient_descent_oracle(self):
        d = synthetic_dataset(100, 20, 6, seed=11)
        eta = 1.0
        cfg = SolverConfig(eta0=eta, b=100, epochs=50, seed=3)
        run = run_sgd(d, cfg, _col_cluster(d))
        x = np.zeros(20)
        for it, snap in enumerate(run.epoch_solutions[1:], start=1):
            x = x - eta * full_gradient(d, x)
            assert relative_solution_error(x, snap) <= 1e-12, f"iteration {it}"

    @pytest.mark.parametrize("p", [2, 4])
    def test_column_rank_count_invariant(self, p):
        d = synthetic_dataset(64, 24, 5, seed=2)
        base = run_sgd(d, SolverConfig(eta0=1.0, b=2, epochs=3, seed=9), _col_cluster(d))
        cfg = SolverConfig(eta0=1.0, b=2, epochs=3, seed=9, p=p)
        run = run_sgd(d, cfg, _col_cluster(d, p))
        for a, b_ in zip(base.epoch_solutions, run.epoch_solutions):
            assert relative_solution_error(a, b_) <= 1e-12

    def test_rejects_s_greater_than_one(self, tiny):
        cfg = SolverConfig(eta0=1.0, b=1, s=2, epochs=1)
        with pytest.raises(ConfigError):
            run_sgd(tiny, cfg, _col_cluster(tiny))

    def test_cluster_layout_mismatch(self, tiny):
        cfg = SolverConfig(eta0=1.0, b=1, epochs=1, layout=BLOCK_ROW)
        with pytest.raises(ConfigError):
            run_sgd(tiny, cfg, _col_cluster(tiny))

    def test_batch_larger_than_m(self, tiny):
        cfg = SolverConfig(eta0=1.0, b=3, epochs=1)
        with pytest.raises(ConfigError):
            run_sgd(tiny, cfg, _col_cluster(tiny))

    def test_deterministic_repeat(self):
        d = synthetic_dataset(50, 10, 3, seed=1)
        cfg = SolverConfig(eta0=1.0, b=4, epochs=2, seed=77)
        a = run_sgd(d, cfg, _col_cluster(d))
        b = run_sgd(d, cfg, _col_cluster(d))
        np.testing.assert_array_equal(a.final_x, b.final_x)
        assert [t.loss for t in a.trace] == [t.loss for t in b.trace]


def _assert_same_bits(run_a, run_b):
    assert len(run_a.epoch_solutions) == len(run_b.epoch_solutions)
    for a, b_ in zip(run_a.epoch_solutions, run_b.epoch_solutions):
        assert a.tobytes() == b_.tobytes()


class TestCasgdDegenerate:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_s1_matches_sgd_column(self, p):
        d = synthetic_dataset(48, 16, 4, seed=6)
        for b in (1, 2, 4):
            cfg = SolverConfig(eta0=1.0, b=b, epochs=3, seed=21, p=p)
            _assert_same_bits(run_sgd(d, cfg, _col_cluster(d, p)), run_casgd(d, cfg, _col_cluster(d, p)))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_s1_matches_sgd_row(self, p):
        d = synthetic_dataset(48, 16, 4, seed=6)
        for b in (b for b in (1, 2, 4) if b % p == 0):
            cfg = SolverConfig(eta0=1.0, b=b, epochs=3, seed=22, p=p, layout=BLOCK_ROW)
            _assert_same_bits(run_sgd(d, cfg, _row_cluster(d, p)), run_casgd(d, cfg, _row_cluster(d, p)))

    def test_worked_example_forced_batches(self, tiny):
        # Seed 6 draws row 0, then row 1.
        sgd_cfg = SolverConfig(eta0=1.0, b=1, total_iterations=2, seed=6)
        assert [sel.indices.tolist() for sel in _drawn(tiny, sgd_cfg, 2)] == [[0], [1]]
        ca = run_casgd(tiny, SolverConfig(eta0=1.0, b=1, s=2, total_iterations=2, seed=6), _col_cluster(tiny))
        # v1 = sig(0) = 0.5, G[2,1] = 0, v2 = 0.5, x2 = 0.5*(0.5*a0 + 0.5*a1)
        np.testing.assert_allclose(ca.final_x, [0.25, -0.5], rtol=0, atol=1e-15)
        sgd = run_sgd(tiny, sgd_cfg, _col_cluster(tiny))
        np.testing.assert_allclose(ca.final_x, sgd.final_x, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("solver", [run_sgd, run_casgd])
    def test_batches_come_only_from_the_stream(self, tiny, solver):
        # The solvers take no batches of the caller's; every run draws from
        # its seed's stream.
        cfg = SolverConfig(eta0=1.0, b=1, s=2, total_iterations=2)
        with pytest.raises(TypeError, match="batches"):
            solver(tiny, cfg, _col_cluster(tiny), batches=[RowBlockSelector(np.array([0]))] * 2)


_ORACLE_NAMES = (
    "RowBlockSelector",
    "csr_from_dense",
    "finite_difference_gradient",
    "full_gradient",
    "gram_block",
    "rank_range",
    "rank_view",
    "reassemble",
    "run_reference",
    "sampled_matvec",
    "sampled_matvec_transpose",
)


def test_package_exports_no_test_oracles():
    # The reference kernels live with the tests, not in the library.
    modules = [casgd, casgd.cluster, casgd.model, casgd.sampling, casgd.solvers, casgd.sparse]
    for module in modules:
        assert not set(_ORACLE_NAMES) & set(vars(module)), module.__name__
        assert not set(_ORACLE_NAMES) & set(getattr(module, "__all__", ())), module.__name__
    assert not hasattr(casgd.CsrMatrix, "from_dense")
    assert not {"rank_range", "rank_view", "reassemble"} & set(dir(casgd.VirtualCluster))


class TestEquivalence:
    @pytest.mark.parametrize("p,b,s", [(1, 1, 2), (1, 1, 64), (2, 4, 8), (4, 1, 16), (8, 2, 4), (1, 16, 4)])
    def test_column_layout(self, p, b, s):
        d = synthetic_dataset(256, 32, 8, seed=13)
        cfg = SolverConfig(eta0=1.0, b=b, s=s, epochs=2, seed=31, p=p)
        sgd = run_sgd(
            d, SolverConfig(eta0=1.0, b=b, epochs=2, seed=31, p=p), _col_cluster(d, p)
        )
        ca = run_casgd(d, cfg, _col_cluster(d, p))
        m = d.num_points
        for t_sgd, t_ca, a, b_ in zip(sgd.trace, ca.trace, sgd.epoch_solutions, ca.epoch_solutions):
            assert relative_solution_error(a, b_) <= 1e-10
            assert abs(t_sgd.accuracy - t_ca.accuracy) <= 1.0 / m + 1e-12
            assert abs(t_sgd.loss - t_ca.loss) <= 1e-12

    def test_one_row_rounds_over_empty_rows_without_dense_cache(self):
        # One column rank above the dense-cache bound scores each one-row
        # round by ``ddot``, which refuses empty rows; they score +0.0.
        d = ragged_libsvm_dataset(700, 3000, seed=5)
        assert d.a_tilde.dense_cache() is None
        cfg = SolverConfig(eta0=1.0, b=1, epochs=2, seed=4)
        drawn = _drawn(d, cfg, 2 * 700)
        assert any(d.a_tilde.row_nnz[sel.indices[0]] == 0 for sel in drawn)
        run = run_sgd(d, cfg, _col_cluster(d))
        ref = run_reference(d, cfg, drawn)
        assert len(run.epoch_solutions) == len(ref.epoch_solutions) == 3
        for a, b_ in zip(ref.epoch_solutions, run.epoch_solutions):
            assert relative_solution_error(a, b_) <= 1e-10

    @pytest.mark.parametrize("b,s", [(1, 1), (2, 3), (1, 40)])
    def test_column_single_rank_without_dense_cache(self, b, s):
        # m*n above the dense-cache bound: rounds of more than one batch
        # gather their stored entries instead of dense rows.
        d = synthetic_dataset(700, 3000, 5, seed=2)
        assert d.a_tilde.dense_cache() is None
        sgd = run_sgd(d, SolverConfig(eta0=1.0, b=b, epochs=2, seed=4), _col_cluster(d))
        ca = run_casgd(d, SolverConfig(eta0=1.0, b=b, s=s, epochs=2, seed=4), _col_cluster(d))
        assert len(ca.epoch_solutions) == 3
        for a, b_ in zip(sgd.epoch_solutions, ca.epoch_solutions):
            assert relative_solution_error(a, b_) <= (0.0 if s == 1 else 1e-10)
        rounds_started = [-(-e * iterations_per_epoch(700, b) // s) for e in range(3)]
        assert [t.words for t in ca.trace] == [r * (s * b) * (s * b + 1) for r in rounds_started]

    @pytest.mark.parametrize("p,b,s", [(1, 1, 4), (2, 4, 8), (4, 4, 2)])
    def test_row_layout_aligned(self, p, b, s):
        d = synthetic_dataset(256, 32, 8, seed=13)
        m = d.num_points
        H = 2 * iterations_per_epoch(m, b)
        sched = epoch_schedule(m, b, H, s)
        sgd = run_sgd(
            d,
            SolverConfig(eta0=1.0, b=b, epochs=2, seed=33, p=p, layout=BLOCK_ROW),
            _row_cluster(d, p),
            schedule=sched,
        )
        ca = run_casgd(
            d,
            SolverConfig(eta0=1.0, b=b, s=s, epochs=2, seed=33, p=p, layout=BLOCK_ROW),
            _row_cluster(d, p),
            schedule=sched,
        )
        for a, b_ in zip(sgd.epoch_solutions, ca.epoch_solutions):
            assert relative_solution_error(a, b_) <= 1e-10

    def test_sig_parity(self):
        d = synthetic_dataset(60, 20, 5, seed=8)
        H, b, s = 24, 2, 4
        sgd = run_sgd(d, SolverConfig(eta0=1.0, b=b, total_iterations=H, seed=1), _col_cluster(d))
        ca = run_casgd(d, SolverConfig(eta0=1.0, b=b, s=s, total_iterations=H, seed=1), _col_cluster(d))
        assert sgd.counters.sig_evals == H * b
        assert ca.counters.sig_evals == H * b  # H divisible by s here


class TestCounterLaws:
    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_collectives_and_messages(self, p, s):
        d = synthetic_dataset(64, 24, 6, seed=4)
        H = 60
        log_p = (p - 1).bit_length()
        ca_col = run_casgd(
            d, SolverConfig(eta0=1.0, b=1, s=s, total_iterations=H, seed=2, p=p), _col_cluster(d, p)
        )
        rounds = -(-H // s)
        assert ca_col.counters.collectives == rounds
        assert ca_col.counters.messages == rounds * log_p
        b_row = 4 * p  # per-rank sampling needs p | b
        ca_row = run_casgd(
            d,
            SolverConfig(eta0=1.0, b=b_row, s=s, total_iterations=H, seed=2, p=p, layout=BLOCK_ROW),
            _row_cluster(d, p),
        )
        assert ca_row.counters.collectives == 2 * rounds
        assert ca_row.counters.messages == 2 * rounds * log_p
        sgd_col = run_sgd(
            d, SolverConfig(eta0=1.0, b=1, total_iterations=H, seed=2, p=p), _col_cluster(d, p)
        )
        assert sgd_col.counters.collectives == H
        assert sgd_col.counters.messages == H * log_p

    @pytest.mark.parametrize("layout", [BLOCK_COLUMN, BLOCK_ROW])
    def test_single_rank_counts_collectives_without_calls(self, layout, monkeypatch):
        # One rank has nothing to exchange: the counters record every
        # round's collective, but no allreduce_sum/allgather call is made.
        d = synthetic_dataset(64, 24, 6, seed=4)

        def no_call(*args):
            raise AssertionError("a single rank makes no collective call")

        monkeypatch.setattr(VirtualCluster, "allreduce_sum", no_call)
        monkeypatch.setattr(VirtualCluster, "allgather", no_call)
        for run, s in ((run_sgd, 1), (run_casgd, 1), (run_casgd, 4)):
            cfg = SolverConfig(eta0=1.0, b=2, s=s, total_iterations=12, seed=2, layout=layout)
            out = run(d, cfg, partition(d, layout, 1))
            assert out.counters.collectives == (2 if layout == BLOCK_ROW and run is run_casgd else 1) * 12 // s

    def test_words_per_round_column(self):
        d = synthetic_dataset(64, 24, 6, seed=4)
        for s, b in [(3, 2), (5, 1), (1, 3)]:
            H = 2 * s
            run = run_casgd(
                d, SolverConfig(eta0=1.0, b=b, s=s, total_iterations=H, seed=3), _col_cluster(d)
            )
            assert run.counters.words_moved == 2 * (s * s * b * b + s * b)

    def test_words_per_iteration_sgd(self):
        d = synthetic_dataset(64, 24, 6, seed=4)
        H, b = 17, 3
        col = run_sgd(d, SolverConfig(eta0=1.0, b=b, total_iterations=H, seed=3), _col_cluster(d))
        assert col.counters.words_moved == H * b
        row = run_sgd(
            d,
            SolverConfig(eta0=1.0, b=b, total_iterations=H, seed=3, layout=BLOCK_ROW),
            _row_cluster(d),
        )
        assert row.counters.words_moved == H * d.num_features

    def test_words_per_round_row(self):
        # uniform nonzeros per row make the gather payload exactly (s-1)*k*b + s*b
        k = 6
        d = synthetic_dataset(64, 24, k, seed=4)
        s, b, rounds = 4, 2, 3
        run = run_casgd(
            d,
            SolverConfig(eta0=1.0, b=b, s=s, total_iterations=rounds * s, seed=5, layout=BLOCK_ROW),
            _row_cluster(d),
        )
        per_round = (s - 1) * k * b + s * b + d.num_features
        assert run.counters.words_moved == rounds * per_round

    def test_iteration_budget_rounds_up(self):
        d = synthetic_dataset(32, 12, 3, seed=9)
        run = run_casgd(
            d, SolverConfig(eta0=1.0, b=1, s=4, total_iterations=10, seed=1), _col_cluster(d)
        )
        assert run.counters.collectives == 3  # ceil(10/4) rounds, 12 iterations run
        assert run.counters.sig_evals == 12

    def test_transpose_apply_phase_moves_no_data(self):
        # one column-layout iteration communicates exactly once (the score sum);
        # the gradient/update phase adds no collectives
        d = synthetic_dataset(32, 12, 3, seed=9)
        run = run_sgd(d, SolverConfig(eta0=1.0, b=2, total_iterations=1, seed=0, p=4), _col_cluster(d, 4))
        assert run.counters.collectives == 1
        assert run.counters.words_moved == 2


# Cumulative (flops, words, messages, collectives) at epochs 0..3 of CA-SGD
# on the acceptance datasets, keyed by (dataset, b, s), with eta 1 and seed
# 123; recorded from a loop that applied updates and counters one iteration
# at a time.  Epoch ends fall inside rounds at every s here, so each trace
# point checks the split of a round's update and counters.
FROZEN_TRACE_COUNTERS = {
    ("synthetic2000x100", 1, 64): [(0, 0, 0, 0), (368419, 133120, 0, 32), (734072, 262080, 0, 63), (1099620, 391040, 0, 94)],
    ("synthetic2000x100", 1, 512): [(0, 0, 0, 0), (1266504, 1050624, 0, 4), (2534193, 2101248, 0, 8), (3804422, 3151872, 0, 12)],
    ("synthetic2000x100", 3, 8): [(0, 0, 0, 0), (148881, 50400, 0, 84), (297387, 100200, 0, 167), (446348, 150600, 0, 251)],
    ("libsvm-scale", 1, 64): [(0, 0, 0, 0), (2515593, 528320, 0, 127), (5030678, 1056640, 0, 254), (7545203, 1584960, 0, 381)],
    ("libsvm-scale", 1, 512): [(0, 0, 0, 0), (11558178, 4202496, 0, 16), (23121777, 8404992, 0, 32), (34689886, 12607488, 0, 48)],
}
FROZEN_FINAL = {
    ("synthetic2000x100", 1, 64): (1102268, 6016),
    ("synthetic2000x100", 1, 512): (3883550, 6144),
    ("synthetic2000x100", 3, 8): (447510, 6024),
    ("libsvm-scale", 1, 64): (7547489, 24384),
    ("libsvm-scale", 1, 512): (34800556, 24576),
}


@pytest.fixture(scope="module")
def acceptance_datasets():
    raw = synthetic_dataset(8124, 112, 21, seed=7, feature_values="binary", label_noise=0.03)
    return {
        "synthetic2000x100": synthetic_dataset(2000, 100, 10, seed=42, label_noise=0.05),
        "libsvm-scale": parse_libsvm(serialize_libsvm(raw)),
    }


@pytest.mark.parametrize("name,b,s", sorted(FROZEN_TRACE_COUNTERS))
def test_trace_point_counters_frozen(acceptance_datasets, name, b, s):
    d = acceptance_datasets[name]
    run = run_casgd(d, SolverConfig(eta0=1.0, b=b, s=s, epochs=3, seed=123), _col_cluster(d))
    assert [(t.flops, t.words, t.messages, t.collectives) for t in run.trace] == FROZEN_TRACE_COUNTERS[name, b, s]
    assert (run.counters.flops, run.counters.sig_evals) == FROZEN_FINAL[name, b, s]


class TestRoundBlocks:
    """Rounds taken K at a time run exactly as rounds taken one at a time."""

    @staticmethod
    def _run_by_block_size(monkeypatch, d, cfg, solver=run_casgd, **kwargs):
        """The run at K = 1, after checking that K = 3 and the default K give
        the same bits, traces and counters; and, for each K, the block sizes
        of its block-wide Gram calls, how many stream reads it made, the
        block sizes of its ``RowBlock``s and the sizes of the Grams their
        rounds' pairs were added into (the row layout without a dense
        cache)."""
        default = casgd.solvers._rounds_per_block
        real = casgd.solvers.gram_lower_blocks
        real_block = casgd.solvers.RowBlock
        add_gram = RowBlock.add_gram
        peek = BatchStream.peek_indices
        base, sizes, reads, row_blocks, round_grams = None, [], [], [], []
        for K in (1, 3, None):
            monkeypatch.setattr(casgd.solvers, "_rounds_per_block", default if K is None else lambda *args, K=K: K)
            blocks, calls, gathered, rounds = [], [], [], []

            def spy(data, row_ids, *args, **kwargs):
                # A Gram call takes a block of rounds.
                assert np.ndim(row_ids) == 2
                blocks.append(len(row_ids))
                return real(data, row_ids, *args, **kwargs)

            def gather(data, row_ids, *args):
                gathered.append(len(row_ids))
                return real_block(data, row_ids, *args)

            def paired(entries, k, G):
                rounds.append(len(G))
                add_gram(entries, k, G)

            def counted(stream, count):
                calls.append(count)
                return peek(stream, count)

            monkeypatch.setattr(casgd.solvers, "gram_lower_blocks", spy)
            monkeypatch.setattr(casgd.solvers, "RowBlock", gather)
            monkeypatch.setattr(RowBlock, "add_gram", paired)
            monkeypatch.setattr(BatchStream, "peek_indices", counted)
            run = solver(d, cfg, partition(d, cfg.layout, cfg.p), **kwargs)
            if base is None:
                base = run
            else:
                _assert_same_bits(base, run)
                assert run.trace == base.trace and run.counters == base.counters
            sizes.append(blocks)
            reads.append(len(calls))
            row_blocks.append(gathered)
            round_grams.append(rounds)
        return base, sizes, reads, row_blocks, round_grams

    @pytest.mark.parametrize("s", [2, 8])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("p", [1, 3])
    def test_block_size_leaves_the_run_unchanged(self, monkeypatch, p, b, s):
        # 11 rounds: blocks of 3 leave a last block of 2, the default takes
        # all 11 in one.  Trace points fall inside rounds 0, 3 and 6.
        d = ragged_libsvm_dataset(150, 40, seed=p + b + s)
        assert d.a_tilde.dense_cache() is not None
        cfg = SolverConfig(eta0=1.0, b=b, s=s, total_iterations=11 * s, p=p, seed=7)
        schedule = [(1, 1), (2, 3 * s + 1), (3, 7 * s - 1), (4, 11 * s)]
        run, sizes, reads, _, _ = self._run_by_block_size(monkeypatch, d, cfg, schedule=schedule)
        # Every rank forms its Gram blocks once per block.
        assert sizes == [[1] * 11 * p, [3] * 3 * p + [2] * p, [11] * p]
        assert reads == [11, 4, 1]
        assert len(run.epoch_solutions) == 5

    @pytest.mark.parametrize("s", [2, 8])
    @pytest.mark.parametrize(
        "layout,p,b,m,n",
        [
            (BLOCK_COLUMN, 1, 1, 800, 3000),
            (BLOCK_COLUMN, 1, 3, 800, 3000),
            (BLOCK_COLUMN, 3, 1, 800, 3000),
            (BLOCK_COLUMN, 3, 3, 800, 3000),
            (BLOCK_ROW, 2, 2, 150, 40),
            (BLOCK_ROW, 2, 4, 150, 40),
            (BLOCK_ROW, 2, 2, 800, 3000),
            (BLOCK_ROW, 2, 4, 800, 3000),
        ],
    )
    def test_blocks_without_dense_cache_and_in_row_layout(self, monkeypatch, layout, p, b, m, n, s):
        # The same for column rounds without a dense cache (the Gram sorts
        # every round's entries at once) and for row rounds, whose entries
        # are gathered once per block (``RowBlock``).  Their one replicated
        # Gram is formed per block from dense rows, and without a dense
        # cache round by round from the block's pairs.  Column trace points
        # fall inside rounds; row layouts materialize x at round ends.
        d = ragged_libsvm_dataset(m, n, seed=m + p + b + s)
        dense = d.a_tilde.dense_cache() is not None
        assert dense == (n == 40)
        cfg = SolverConfig(eta0=1.0, b=b, s=s, total_iterations=11 * s, layout=layout, p=p, seed=7)
        row = layout == BLOCK_ROW
        schedule = [(1, s), (2, 4 * s), (3, 7 * s), (4, 11 * s)] if row else [(1, 1), (2, 3 * s + 1), (3, 7 * s - 1), (4, 11 * s)]
        run, sizes, _, row_blocks, round_grams = self._run_by_block_size(monkeypatch, d, cfg, schedule=schedule)
        owners = (1 if dense else 0) if row else p
        default = casgd.solvers._rounds_per_block(s * b, n, dense, owners, d.nnz / m if row else 0)
        per_block = [[min(K, 11 - start) for start in range(0, 11, K)] for K in (1, 3, default)]
        assert sizes == [[size for size in blocks for _ in range(owners)] for blocks in per_block]
        assert row_blocks == (per_block if row else [[], [], []])
        assert round_grams == [[s * b] * 11 if row and not dense else []] * 3
        assert len(run.epoch_solutions) == 5

    @pytest.mark.parametrize("layout,p,b", [(BLOCK_COLUMN, 1, 1), (BLOCK_COLUMN, 3, 2), (BLOCK_ROW, 2, 4)])
    def test_sgd_rounds_in_blocks_without_dense_cache(self, monkeypatch, layout, p, b):
        # Without a dense cache and a Gram a block stores only its draws, so
        # SGD rounds come many to a block: 40 rounds in one stream read.
        d = ragged_libsvm_dataset(800, 3000, seed=p + b)
        assert d.a_tilde.dense_cache() is None
        assert casgd.solvers._rounds_per_block(b, 3000, False, 0, d.nnz / 800 if layout == BLOCK_ROW else 0) > 40
        cfg = SolverConfig(eta0=1.0, b=b, total_iterations=40, layout=layout, p=p, seed=7)
        schedule = [(1, 5), (2, 17), (3, 40)]
        run, sizes, reads, _, _ = self._run_by_block_size(monkeypatch, d, cfg, solver=run_sgd, schedule=schedule)
        assert sizes == [[], [], []]
        assert reads == [40, 14, 1]
        assert len(run.epoch_solutions) == 4


def _replayed_counters(d, cfg, cluster, schedule):
    """``run_casgd``'s cumulative (flops, words, messages, collectives) at
    each trace point, and at the end, counted iteration by iteration over
    the replayed batch stream.  Flops: each round's scores (its rows'
    nonzeros) and strictly-lower cross-batch index matches, merged pair by
    pair; then per iteration its rows' nonzeros, n (column) and i*b*b for
    the i-th iteration of the round, and n per round (row).  Collectives,
    each of ceil(log2 p) messages: per column round, one of the s*b scores
    and the s*b square Gram, counted as the round starts; per row round, an
    allgather of the s*b scores and the stored entries of its first s-1
    batches' rows, and the n-word gradient allreduce."""
    row = cfg.layout == BLOCK_ROW
    ranges = cluster.layout.boundaries if row else None
    stream = BatchStream(cfg.seed, d.num_points, cfg.b, ranges)
    A, n, s, b = d.a_tilde, d.num_features, cfg.s, cfg.b
    depth = math.ceil(math.log2(cfg.p))
    points = dict((it, e) for e, it in schedule)
    flops = words = collectives = 0
    counted = lambda: (flops, words, collectives * depth, collectives)
    at = {0: counted()}
    for t in range(0, cfg.total_iterations, s):
        batches = [stream.next_indices() for _ in range(s)]
        ids = [i for batch in batches for i in batch]
        flops += sum(len(A.row(i)[0]) for i in ids)
        for j in range(len(ids)):
            for q in range(j - j % b):
                flops += len(np.intersect1d(A.row(ids[j])[0], A.row(ids[q])[0], assume_unique=True))
        if not row:
            words += s * b + (s * b) ** 2
            collectives += 1
        for i, batch in enumerate(batches):
            flops += sum(len(A.row(r)[0]) for r in batch) + (0 if row else n) + i * b * b
            if t + i + 1 in points:
                at[points[t + i + 1]] = counted()
        if row:
            flops += n
            words += s * b + sum(len(A.row(r)[0]) for batch in batches[:-1] for r in batch) + n
            collectives += 2
            at[points.get(t + s, -1)] = counted()
    return [at[e] for e in range(len(schedule) + 1)], counted()


@pytest.mark.parametrize("s", [2, 4])
@pytest.mark.parametrize("layout", [BLOCK_COLUMN, BLOCK_ROW])
@pytest.mark.parametrize("m,n", [(150, 40), (800, 3000)])
def test_counters_match_replay_on_ragged_rows(monkeypatch, layout, m, n, s):
    # Rows of 0 to 12 nonzeros, stored zeros and an empty row: the closed
    # forms are not exact here, so the flops, and the words of the row
    # layout's allgather, are counted by brute force.  Column trace points
    # fall inside rounds (split updates); the row layout's sit at round
    # ends.  The default block takes all 9 rounds at once, K = 2 takes them
    # two at a time (the last block holds one).
    d = ragged_libsvm_dataset(m, n, seed=3)
    assert (d.a_tilde.dense_cache() is None) == (n == 3000)
    b, p = 2, 2
    cfg = SolverConfig(eta0=1.0, b=b, s=s, total_iterations=9 * s, layout=layout, p=p, seed=11)
    row = layout == BLOCK_ROW
    schedule = [(1, s), (2, 5 * s), (3, 9 * s)] if row else [(1, 1), (2, 3 * s + 1), (3, 6 * s - 1), (4, 9 * s)]
    want, final = _replayed_counters(d, cfg, partition(d, layout, p), schedule)
    for K in (None, 2):
        if K is not None:
            monkeypatch.setattr(casgd.solvers, "_rounds_per_block", lambda *args: K)
        run = run_casgd(d, cfg, partition(d, layout, p), schedule=schedule)
        assert [(t.flops, t.words, t.messages, t.collectives) for t in run.trace] == want
        assert run.counters.as_dict() == dict(zip(("flops", "words", "messages", "collectives"), final), sig_evals=9 * s * b)
        assert all(type(v) is int for v in run.counters.as_dict().values())
        assert all(type(t.flops) is int for t in run.trace)


@pytest.mark.parametrize("solver,s", [(run_sgd, 1), (run_casgd, 1), (run_casgd, 2), (run_casgd, 8)])
@pytest.mark.parametrize("m,n", [(150, 40), (800, 3000)])
def test_one_column_rank_counters_at_every_trace_point(monkeypatch, m, n, solver, s):
    # One column rank runs a block's rounds in one loop and counts them per
    # segment.  Trace points sit at a round's end inside a block, inside
    # rounds (two in one round at s = 8) and at the run's end, and every
    # counter must read at each what round-by-round accounting gives: the
    # flops the replay's, the others their closed forms.  K = 1 and 2 cut
    # blocks between the points; the default block takes all 9 rounds.
    d = ragged_libsvm_dataset(m, n, seed=5)
    assert (d.a_tilde.dense_cache() is None) == (n == 3000)
    cfg = SolverConfig(eta0=1.0, b=1, s=s, total_iterations=9 * s, seed=11)
    points = sorted({1, 3 * s, 3 * s + 1, 3 * s + 3, 6 * s - 1, 9 * s})
    schedule = list(enumerate(points, start=1))
    replayed, final = _replayed_counters(d, cfg, partition(d, BLOCK_COLUMN, 1), schedule)
    want = [counters[0] for counters in replayed]
    words = s + s * s if solver is run_casgd else 1
    law = [
        {"words": -(-it // s) * words, "messages": 0, "collectives": -(-it // s), "sig_evals": it}
        for it in [0] + points
    ]
    record = casgd.solvers._Recorder.record
    seen = []

    def spy(self, epoch, x_full):
        seen.append(self.counters.as_dict())
        record(self, epoch, x_full)

    monkeypatch.setattr(casgd.solvers._Recorder, "record", spy)
    for K in (None, 1, 2):
        if K is not None:
            monkeypatch.setattr(casgd.solvers, "_rounds_per_block", lambda *args: K)
        seen.clear()
        run = solver(d, cfg, partition(d, BLOCK_COLUMN, 1), schedule=schedule)
        assert [counters.pop("flops") for counters in seen] == want
        assert seen == law
        assert run.counters.flops == final[0]
        assert {key: value for key, value in run.counters.as_dict().items() if key != "flops"} == law[-1]


def _every_iteration_run(m, n, solver, s, layout=BLOCK_COLUMN, p=1, b=1):
    """A run under its default (epoch) schedule, the same run with a trace
    point at every iteration (in the row layout, which materializes x only
    at round ends, at every round end), and the default schedule's
    iterations."""
    d = ragged_libsvm_dataset(m, n, seed=6)
    assert (d.a_tilde.dense_cache() is None) == (n == 3000)
    cfg = SolverConfig(eta0=1.0, b=b, s=s, epochs=2, layout=layout, p=p, seed=3)
    H = 2 * iterations_per_epoch(m, b)
    iterations = s * -(-H // s)
    step = s if layout == BLOCK_ROW else 1
    default = solver(d, cfg, partition(d, layout, p))
    every = solver(d, cfg, partition(d, layout, p), schedule=[(it, it) for it in range(step, iterations + 1, step)])
    assert len(every.trace) == iterations // step + 1
    points = [it for _, it in epoch_schedule(m, b, H, step)]
    return default, every, points


@pytest.mark.parametrize("layout,p,b", [(BLOCK_COLUMN, 1, 1), (BLOCK_COLUMN, 3, 1), (BLOCK_COLUMN, 3, 3), (BLOCK_ROW, 2, 2)])
@pytest.mark.parametrize("solver,s", [(run_sgd, 1), (run_casgd, 2), (run_casgd, 8)])
@pytest.mark.parametrize("m,n", [(150, 40), (800, 3000)])
def test_trace_point_at_every_iteration_leaves_the_run_unchanged(m, n, solver, s, layout, p, b):
    # A trace point at every iteration cuts every segment after one round
    # and, in the column layout, splits every round at s > 1 (at p > 1 the
    # split spans go through every rank's update).  The counters must read
    # as under the default schedule, at the end and at each epoch end, and
    # so must the bits.  A split column round over a dense cache updates a
    # copy of x span by span for the points inside it, and x by the whole
    # round's product, as an unsplit round does.
    default, every, points = _every_iteration_run(m, n, solver, s, layout, p, b)
    counters = lambda t: (t.flops, t.words, t.messages, t.collectives)
    assert every.counters == default.counters
    at = {record.epoch: (record, x) for record, x in zip(every.trace, every.epoch_solutions)}
    pairs = [(default.final_x, every.final_x)]
    for record, x_at, it in zip(default.trace[1:], default.epoch_solutions[1:], points):
        assert counters(at[it][0]) == counters(record)
        pairs.append((x_at, at[it][1]))
    assert len(pairs) == 3
    for x_ref, x in pairs:
        assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("s", [2, 8])
def test_trace_points_inside_dense_rounds_keep_the_bits(s):
    # Where trace points fall does not change the trajectory's bits, also
    # over a dense cache at s > 1, where a whole round's update is one BLAS
    # product and a split round's points read a copy of x updated row by row.
    default, every, _ = _every_iteration_run(150, 40, run_casgd, s)
    assert every.final_x.tobytes() == default.final_x.tobytes()


def test_two_row_rounds_read_the_gram(monkeypatch):
    # One column rank takes two-row rounds over a dense cache as two dots,
    # the recurrence and two axpys.  Taking the second dot after the first
    # axpy is plain SGD, which no tolerance tells from the recurrence; but
    # with the Gram blocks zeroed the recurrence drops a term and leaves
    # SGD, under the default schedule and with every round split.
    sgd = _every_iteration_run(150, 40, run_sgd, 1)[0]
    runs = _every_iteration_run(150, 40, run_casgd, 2)[:2]
    for run in runs:
        assert relative_solution_error(sgd.final_x, run.final_x) <= 1e-10
    real = casgd.solvers.gram_lower_blocks

    def zeroed(*args, **kwargs):
        out, matches = real(*args, **kwargs)
        out[...] = 0.0
        return out, matches

    monkeypatch.setattr(casgd.solvers, "gram_lower_blocks", zeroed)
    for run, blind in zip(runs, _every_iteration_run(150, 40, run_casgd, 2)[:2]):
        assert blind.counters == run.counters
        assert relative_solution_error(sgd.final_x, blind.final_x) > 1e-6


def _scatter(d, block, width, w):
    """Every round's rows of ``block`` (one batch each), weighted by ``w``,
    as (K, p, n) gradients, as the row layout adds them: one
    ``RowBlock.gradients`` per round.  A round without a support gives its
    (p, n) buffers; one with a support (every round at
    ``_SUPPORT_MIN_RATIO`` 0, and a round of empty rows at any ratio) gives
    (p, len(support)) buffers, which fill the support's columns."""
    entries = RowBlock(d, block, block.shape[1], width, False)
    K, n = len(block), d.num_features
    out = np.zeros((K, block.shape[1] // width, n))
    for k in range(K):
        parts, support = entries.gradients(k, w[k]), entries.supports[k]
        assert parts.dtype == np.float64
        if support is None:
            out[k] = parts
        else:
            assert parts.shape == (out.shape[1], len(support))
            out[k][:, support] = parts
    return out


class TestRowGradientReduction:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("rows_per_rank", [1, 4, 40])
    def test_support_matches_dense_reduction(self, monkeypatch, p, rows_per_rank):
        # The reduction over the round's columns, of the per-rank gradients
        # over them, gives the same bits and counters as the length-n
        # reduction of fresh per-rank buffers, at every round size (the
        # ratio that picks the path is forced each way).  Each round's
        # buffers are fresh: applying them leaves the next call's alone.
        d = synthetic_dataset(700, 3000, 5, seed=8)
        rng = np.random.default_rng(10 * p + rows_per_rank)
        parts = [rng.choice(700, size=rows_per_rank, replace=False) for _ in range(p)]
        parts[-1][0] = parts[0][0]  # a row held by two ranks
        weights = [rng.standard_normal(rows_per_rank) for _ in range(p)]
        ids = np.concatenate(parts)
        x0 = rng.standard_normal(3000)
        eta = 0.37

        reference = _row_cluster(d, p)
        gs = [np.zeros(3000) for _ in range(p)]
        for rows, w, g in zip(parts, weights, gs):
            add_rows_transpose(d, rows, w, g)
        g = reference.combine(gs)
        want = x0 + g * eta

        for ratio in (0, 10**9):
            monkeypatch.setattr(casgd.sparse, "_SUPPORT_MIN_RATIO", ratio)
            entries = RowBlock(d, ids[None], len(ids), rows_per_rank, False)
            support = entries.supports[0]
            if ratio:
                assert support is None
            else:
                np.testing.assert_array_equal(support, np.unique(np.concatenate([d.a_tilde.row(i)[0] for i in ids])))
            parts = entries.gradients(0, np.concatenate(weights))
            assert parts.shape == (p, 3000 if support is None else len(support))
            kept = parts.copy()
            cluster = _row_cluster(d, p)
            x = x0.copy()
            _apply_row_gradient(cluster, parts, support, eta, x)
            assert x.tobytes() == want.tobytes()
            again = entries.gradients(0, np.concatenate(weights))
            assert not np.shares_memory(again, parts) and again.tobytes() == kept.tobytes()
            assert cluster.counters == reference.counters
            assert cluster.counters.words_moved == 3000

    @pytest.mark.parametrize("support", [False, True])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize(
        "n,width,batches", [(3000, 1, 1), (3000, 4, 1), (3000, 4, 2), (3000, 40, 1), (3000, 40, 2), (40, 1, 1), (40, 40, 1)]
    )
    def test_one_scatter_matches_per_rank_updates(self, monkeypatch, p, n, width, batches, support):
        # One scatter per round of a block, its rows rank after rank, gives
        # every rank's buffer the bits of ``add_rows_transpose`` over that
        # rank's rows into a zeroed buffer, in the form ``gather_rows``
        # gives them: (columns, values) lists for one batch (dense rows
        # under a dense cache) and entries for two.  Dense ndarray rows (two
        # batches under a dense cache) take a BLAS product instead, so they
        # are not compared.  The rows include the empty row 0, row 1 of stored zeros
        # only, and a row held by two ranks.  Buffers are fresh each round,
        # over all n or over the round's support (every round, with
        # ``support``).
        monkeypatch.setattr(casgd.sparse, "_SUPPORT_MIN_RATIO", 0 if support else 10**9)
        d = ragged_libsvm_dataset(800, n, seed=width + p)
        assert (d.a_tilde.dense_cache() is not None) == (n == 40)
        rng = np.random.default_rng(width * p + batches)
        K, sb = 3, p * width
        block = np.stack([rng.choice(800, size=sb, replace=False) for _ in range(K)])
        block[0, 0], block[1, -1] = 0, 1
        if p > 1:
            block[2, width] = block[2, 0]
        w = rng.standard_normal((K, sb))
        got = _scatter(d, block, width, w)
        want = np.zeros((K, p, n))
        forms = set()
        for k in range(K):
            for r in range(p):
                ids = block[k, r * width : (r + 1) * width]
                rows = gather_rows(d, ids, batches)
                forms.add(type(rows).__name__)
                add_rows_transpose(d, ids, w[k, r * width : (r + 1) * width], want[k, r], rows=rows)
        assert forms == ({"RoundEntries"} if batches == 2 else {"list"})
        assert got.tobytes() == want.tobytes()

    def test_block_support_matches_each_round(self, monkeypatch):
        # One block of ragged rounds, some above and some below
        # n / _SUPPORT_MIN_RATIO nonzeros, gives each round its own sorted
        # distinct columns, or None for the dense ones, as the per-round
        # support kernel it replaced does; with the ratio lifted, every
        # round its columns.
        d = ragged_libsvm_dataset(800, 3000, seed=4)
        A = d.a_tilde
        rng = np.random.default_rng(4)
        by_size = np.argsort(A.row_nnz, kind="stable")
        sb = 24
        block = np.stack(
            [
                by_size[:sb],  # the fewest entries, empty rows included
                by_size[-sb:],  # the most
                rng.choice(800, size=sb, replace=False),
                by_size[sb : 2 * sb],
                by_size[-2 * sb : -sb],
                rng.choice(800, size=sb, replace=False),
            ]
        )
        limit = 3000 / casgd.sparse._SUPPORT_MIN_RATIO
        dense = [A.row_nnz[ids].sum() > limit for ids in block]
        assert any(dense) and not all(dense)
        for lifted in (False, True):
            if lifted:
                monkeypatch.setattr(casgd.sparse, "_SUPPORT_MIN_RATIO", 0)
                dense = [False] * len(block)
            for payload in (False, True):
                supports = RowBlock(d, block, 6, 2, payload).supports
                oracle = column_support(d, block, ratio=casgd.sparse._SUPPORT_MIN_RATIO)
                assert len(supports) == len(block)
                for ids, got, over, old in zip(block, supports, dense, oracle):
                    if over:
                        assert got is None and old is None
                    else:
                        want = np.unique(np.concatenate([A.row(i)[0] for i in ids]))
                        assert got.dtype == want.dtype and got.tobytes() == want.tobytes() == old.tobytes()

    @pytest.mark.parametrize("s,dense_cache", [(1, True), (4, True), (4, False)])
    def test_support_only_with_sparse_row_forms(self, monkeypatch, s, dense_cache):
        # Rounds of one nonzero per row over 600 columns are sparse enough
        # for a support.  Row rounds scatter their stored entries with or
        # without a dense cache, so every round reduces fresh gradient
        # buffers over its columns.
        if not dense_cache:
            monkeypatch.setattr(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0)
        d = synthetic_dataset(30, 600, 1, seed=9)
        assert (d.a_tilde.dense_cache() is not None) == dense_cache
        seen = []
        real = casgd.solvers._apply_row_gradient

        def spy(cluster, parts, support, eta_scale, x):
            seen.append(support is None)
            assert parts.shape == (2, 600 if support is None else len(support))
            real(cluster, parts, support, eta_scale, x)

        monkeypatch.setattr(casgd.solvers, "_apply_row_gradient", spy)
        cfg = SolverConfig(eta0=1.0, b=2, s=s, total_iterations=8, layout=BLOCK_ROW, p=2, seed=1)
        run_casgd(d, cfg, _row_cluster(d, 2))
        assert seen == [False] * (8 // s)

    def test_support_only_for_sparse_rounds(self, monkeypatch):
        d = synthetic_dataset(700, 3000, 5, seed=8)
        most = 3000 // (5 * _SUPPORT_MIN_RATIO)
        few, many = np.arange(most), np.arange(most + 1)
        assert RowBlock(d, few[None], most, most, False).supports[0] is not None
        assert RowBlock(d, many[None], most + 1, most + 1, False).supports[0] is None
        # A round of one empty row has an empty support.
        empty = RowBlock(ragged_libsvm_dataset(800, 3000, seed=4), np.zeros((1, 1), dtype=np.int64), 1, 1, False)
        assert len(empty.supports[0]) == 0 and len(empty.rounds[0].keys) == 0
        # Under a dense cache rounds of one or more batches scatter their
        # stored entries, over a support by the same ratio.
        cached = synthetic_dataset(30, 600, 5, seed=8)
        assert cached.a_tilde.dense_cache() is not None
        for b, width in ((2, 1), (4, 2)):
            assert RowBlock(cached, np.arange(4)[None], b, width, False).supports[0] is not None
        assert RowBlock(cached, np.arange(6)[None], 2, 1, False).supports == [None]


class TestSigBatch:
    def test_scalar_up_to_the_threshold_then_vector(self):
        rng = np.random.default_rng(3)
        for size in range(1, 2 * _SCALAR_SIG_MAX + 1):
            z = rng.standard_normal(size) * 8
            got = _sig_batch(z)
            if size <= _SCALAR_SIG_MAX:
                want = np.array([_sig_scalar(t) for t in z.tolist()])
            else:
                want = casgd.model.sig(z)
            assert got.tobytes() == want.tobytes(), size

    def test_vector_sig_bits_do_not_depend_on_the_split(self):
        # sig is elementwise: a batch taken whole or in any pieces has the
        # same bits, so whether ranks evaluate their shares or one call
        # takes the batch changes nothing.
        rng = np.random.default_rng(5)
        z = rng.standard_normal(200) * 8
        whole = casgd.model.sig(z)
        for _ in range(50):
            cuts = np.sort(rng.choice(np.arange(1, 200), rng.integers(1, 12), replace=False))
            pieces = np.concatenate([casgd.model.sig(part) for part in np.split(z, cuts)])
            assert pieces.tobytes() == whole.tobytes()

    def test_row_batches_of_sixteen_take_the_scalar_branch(self, monkeypatch):
        # A row run at b = 16, p = 4 hands each batch's 16 scores to one
        # call, which evaluates them by scalar exp, never by ``model.sig``.
        scalars, seen = [], []
        scalar, batch = casgd.solvers._sig_scalar, casgd.solvers._sig_batch

        def spy_scalar(t):
            scalars.append(t)
            return scalar(t)

        def spy_batch(z):
            before = len(scalars)
            out = batch(z)
            seen.append((len(z), len(scalars) - before))
            return out

        monkeypatch.setattr(casgd.solvers, "_sig_scalar", spy_scalar)
        monkeypatch.setattr(casgd.solvers, "_sig_batch", spy_batch)
        monkeypatch.setattr(casgd.solvers, "sig", lambda z: pytest.fail("vector sig called"))
        d = synthetic_dataset(64, 20, 4, seed=2)
        for s in (1, 4):
            seen.clear()
            cfg = SolverConfig(eta0=1.0, b=16, s=s, total_iterations=8, layout=BLOCK_ROW, p=4, seed=1)
            run_casgd(d, cfg, _row_cluster(d, 4))
            assert seen == [(16, 16)] * 8


class TestTraces:
    def test_epoch_zero_only(self, tiny):
        run = run_sgd(tiny, SolverConfig(eta0=1.0, b=1, epochs=0, seed=0), _col_cluster(tiny))
        assert len(run.trace) == 1
        rec = run.trace[0]
        assert rec.epoch == 0
        assert abs(rec.loss - math.log(2)) <= 1e-15
        assert (rec.flops, rec.words, rec.messages, rec.collectives) == (0, 0, 0, 0)

    def test_trace_length_counts_epochs(self):
        d = synthetic_dataset(30, 10, 3, seed=2)
        run = run_sgd(d, SolverConfig(eta0=1.0, b=7, epochs=4, seed=0), _col_cluster(d))
        assert [t.epoch for t in run.trace] == [0, 1, 2, 3, 4]
        assert len(run.epoch_solutions) == 5

    def test_row_layout_snapshots_align_to_rounds(self):
        d = synthetic_dataset(10, 6, 2, seed=2)
        cfg = SolverConfig(eta0=1.0, b=1, s=4, epochs=2, seed=0, layout=BLOCK_ROW)
        run = run_casgd(d, cfg, _row_cluster(d))
        assert [t.epoch for t in run.trace] == [0, 1, 2]
        # epochs at iterations 10 and 20 align up to rounds of 4: 12 and 20
        sched = epoch_schedule(10, 1, 20, 4)
        assert sched == [(1, 12), (2, 20)]
        # A round size of 1 leaves the epoch ends as they are.
        assert epoch_schedule(10, 1, 20) == epoch_schedule(10, 1, 20, 1) == [(1, 10), (2, 20)]

    @pytest.mark.parametrize("layout", [BLOCK_COLUMN, BLOCK_ROW])
    def test_loss_and_accuracy_have_the_model_functions_bits(self, layout):
        # A trace point takes one product a_tilde x for both values.
        d = ragged_libsvm_dataset(150, 40, seed=8)
        cfg = SolverConfig(eta0=2.0, b=2, s=3, epochs=3, seed=1, layout=layout, p=2)
        run = run_casgd(d, cfg, partition(d, layout, 2))
        assert len(run.trace) == 4
        for t, x in zip(run.trace, run.epoch_solutions):
            got = np.array([t.loss, t.accuracy])
            want = np.array([casgd.model.loss(d, x), casgd.model.accuracy(d, x)])
            assert got.tobytes() == want.tobytes()

    def test_monotone_convergence_on_toy(self):
        d = synthetic_dataset(200, 20, 5, seed=15, label_noise=0.05)
        run = run_sgd(d, SolverConfig(eta0=1.0, b=8, epochs=100, seed=7), _col_cluster(d))
        assert run.trace[-1].loss < run.trace[0].loss


class TestRelativeSolutionError:
    def test_identical_vectors(self):
        assert relative_solution_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_small_perturbation(self):
        x = np.array([3.0, 4.0])
        x2 = np.array([3.0, 4.00000004])
        want = np.linalg.norm(x - x2) / 5.0  # ~8e-9 by direct norm arithmetic
        assert relative_solution_error(x, x2) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(8e-9, rel=1e-6)

    def test_orthogonal_unit_vectors(self):
        assert relative_solution_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.sqrt(2), rel=1e-15
        )

    def test_zero_cases(self):
        z = np.zeros(3)
        assert relative_solution_error(z, z) == 0.0
        assert relative_solution_error(z, np.array([0.0, 1.0, 0.0])) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_solution_error(np.zeros(2), np.zeros(3))

    def test_no_overflow_near_the_float_limit(self):
        x = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(x))
        assert relative_solution_error(x, np.array([1e308, 1.1e308])) == pytest.approx(0.1 / math.sqrt(2), rel=1e-14)
        assert relative_solution_error(x, -x) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_give_nan(self, bad):
        assert math.isnan(relative_solution_error(np.array([bad, 1.0]), np.array([1.0, 1.0])))
        assert math.isnan(relative_solution_error(np.array([1.0, 1.0]), np.array([1.0, bad])))

    def test_same_bits_as_unscaled_formula_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.standard_normal(30) * 10.0 ** rng.integers(-100, 100)
            y = x + rng.standard_normal(30) * 10.0 ** rng.integers(-120, 100)
            assert relative_solution_error(x, y) == np.linalg.norm(x - y) / np.linalg.norm(x)


class TestConfigValidation:
    def test_exactly_one_budget(self):
        with pytest.raises(ConfigError):
            SolverConfig(eta0=1.0, b=1)
        with pytest.raises(ConfigError):
            SolverConfig(eta0=1.0, b=1, epochs=1, total_iterations=1)

    def test_row_layout_divisibility(self):
        with pytest.raises(ConfigError, match="divide"):
            SolverConfig(eta0=1.0, b=3, epochs=1, layout=BLOCK_ROW, p=2)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, -1.0])
    def test_eta_finite_and_non_negative(self, eta):
        with pytest.raises(ConfigError, match="eta0"):
            SolverConfig(eta0=eta, b=1, epochs=1)

    def test_positive_sizes(self):
        with pytest.raises(ConfigError):
            SolverConfig(eta0=1.0, b=0, epochs=1)
        with pytest.raises(ConfigError):
            SolverConfig(eta0=1.0, b=1, s=0, epochs=1)
