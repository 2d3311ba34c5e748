import math

import numpy as np
import pytest

from casgd import (
    BLOCK_COLUMN,
    BLOCK_ROW,
    ConfigError,
    RowBlockSelector,
    SolverConfig,
    VirtualCluster,
    full_gradient,
    parse_libsvm,
    partition,
    relative_solution_error,
    run_casgd,
    run_reference,
    run_sgd,
    serialize_libsvm,
)
from casgd.datagen import synthetic_dataset
from casgd.solvers import epoch_schedule, iterations_per_epoch


def _col_cluster(d, p=1):
    return partition(d, BLOCK_COLUMN, p)


def _row_cluster(d, p=1):
    return partition(d, BLOCK_ROW, p)


def _full_batch(m):
    return RowBlockSelector(np.arange(m))


class TestRunSgd:
    def test_one_full_batch_step(self, tiny):
        cfg = SolverConfig(eta0=1.0, b=2, total_iterations=1)
        run = run_sgd(tiny, cfg, _col_cluster(tiny), batches=[_full_batch(2)])
        np.testing.assert_allclose(run.final_x, [0.25, -0.5], rtol=0, atol=1e-15)
        ref = run_reference(tiny, cfg, [_full_batch(2)])
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
        sels = [RowBlockSelector(np.array([0])), RowBlockSelector(np.array([1]))]
        cfg = SolverConfig(eta0=1.0, b=1, s=2, total_iterations=2)
        ca = run_casgd(tiny, cfg, _col_cluster(tiny), batches=sels)
        # v1 = sig(0) = 0.5, G[2,1] = 0, v2 = 0.5, x2 = 0.5*(0.5*a0 + 0.5*a1)
        np.testing.assert_allclose(ca.final_x, [0.25, -0.5], rtol=0, atol=1e-15)
        sgd = run_sgd(tiny, SolverConfig(eta0=1.0, b=1, total_iterations=2), _col_cluster(tiny), batches=sels)
        np.testing.assert_allclose(ca.final_x, sgd.final_x, rtol=0, atol=1e-15)

    def test_forced_batches_insufficient(self, tiny):
        cfg = SolverConfig(eta0=1.0, b=1, s=2, total_iterations=4)
        with pytest.raises(ConfigError, match="forced"):
            run_casgd(tiny, cfg, _col_cluster(tiny), batches=[RowBlockSelector(np.array([0]))])


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

    @pytest.mark.parametrize("b,s", [(1, 1), (2, 3), (1, 40)])
    def test_column_single_rank_without_dense_cache(self, b, s):
        # m*n above the dense-cache bound: rounds gather CSR rows instead.
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
        sched = epoch_schedule(m, b, H, s=s, align_to_rounds=True)
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
        sched = epoch_schedule(10, 1, 20, s=4, align_to_rounds=True)
        assert sched == [(1, 12), (2, 20)]

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
