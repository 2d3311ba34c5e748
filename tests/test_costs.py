import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from casgd import (
    BLOCK_COLUMN,
    BLOCK_ROW,
    CostParams,
    MachineModel,
    SolverConfig,
    crossover_s,
    modeled_time,
    partition,
    run_casgd,
    run_sgd,
    theoretical_cost,
)
from casgd.cluster import CostCounters
from casgd.datagen import synthetic_dataset


def _params(**kw):
    base = dict(m=1000, n=100, p=4, b=1, s=16, H=100, f=0.1)
    base.update(kw)
    return CostParams(**base)


def _exact_flops_and_words(params: CostParams, f: Fraction, algorithm: str, layout: str) -> tuple[Fraction, Fraction]:
    """The module docstring's flop and word laws in rational arithmetic, at the exact f."""
    n, b, s, H = params.n, params.b, params.s, params.H
    if algorithm == "sgd":
        return H * (2 * f * b * n + n), Fraction(H * (b if layout == BLOCK_COLUMN else n))
    rounds, pairs = -(-H // s), s * (s - 1) // 2
    shared = 2 * s * f * b * n + pairs * b * b * f * f * n + pairs * b * b
    if layout == BLOCK_COLUMN:
        return rounds * (shared + s * n), Fraction(rounds * (s * s * b * b + s * b))
    return rounds * (shared + n), rounds * ((s - 1) * f * b * n + s * b + n)


def _assert_counters_follow_exact_laws(params: CostParams, f: Fraction, algorithm: str, layout: str) -> None:
    """Each counter that is integral in exact arithmetic is that int; any other is its nearest float."""
    got = theoretical_cost(params, algorithm, layout)
    for value, exact in zip((got.flops, got.words_moved), _exact_flops_and_words(params, f, algorithm, layout)):
        if exact.denominator == 1:
            assert type(value) is int and value == exact, (algorithm, layout, value, exact)
        else:
            assert type(value) is float and value == pytest.approx(float(exact), rel=1e-14), (algorithm, layout)
    for value in (got.messages, got.collectives, got.sig_evals):
        assert type(value) is int


class TestTheoreticalCost:
    def test_sgd_column_words_and_messages(self):
        cost = theoretical_cost(_params(H=10, b=3, p=4), "sgd", BLOCK_COLUMN)
        assert cost.words_moved == 30
        assert cost.messages == 20
        assert cost.collectives == 10
        assert cost.sig_evals == 30

    def test_casgd_column_round_words(self):
        cost = theoretical_cost(_params(H=10, s=5, b=2), "casgd", BLOCK_COLUMN)
        assert cost.collectives == 2
        assert cost.words_moved == 2 * (25 * 4 + 10)  # 220

    def test_s1_casgd_reduces_to_sgd_messages(self):
        p = _params(H=20, s=1, b=3, p=8)
        sgd = theoretical_cost(p, "sgd", BLOCK_COLUMN)
        ca = theoretical_cost(p, "casgd", BLOCK_COLUMN)
        assert ca.messages == sgd.messages
        assert ca.collectives == sgd.collectives
        assert ca.sig_evals == sgd.sig_evals
        # words keep the pinned round constant s^2 b^2 + s b even at s = 1
        assert ca.words_moved == 20 * (9 + 3)

    def test_sgd_row_words(self):
        cost = theoretical_cost(_params(H=7, b=2, n=50), "sgd", BLOCK_ROW)
        assert cost.words_moved == 7 * 50

    def test_casgd_row_words(self):
        cost = theoretical_cost(_params(H=12, s=4, b=2, n=50, f=0.25), "casgd", BLOCK_ROW)
        per_round = 3 * 0.25 * 2 * 50 + 8 + 50
        assert cost.words_moved == 3 * per_round

    @pytest.mark.parametrize("algorithm", ["sgd", "casgd"])
    @pytest.mark.parametrize("layout", [BLOCK_COLUMN, BLOCK_ROW])
    def test_integral_counters_are_ints_at_a_typed_f(self, algorithm, layout):
        """``casgd costs --m 200 --n 30 --f 0.2 --s 8 --epochs 5``: in floats the
        row layout's CA-SGD flops come to 23450.000000000004."""
        params = CostParams(m=200, n=30, p=1, b=1, s=8, H=1000, f=0.2)
        _assert_counters_follow_exact_laws(params, Fraction(1, 5), algorithm, layout)
        if (algorithm, layout) == ("casgd", BLOCK_ROW):
            assert theoretical_cost(params, algorithm, layout).flops == 23450

    # The benchmark's shapes: (m, n, nonzeros per row, layout, p, b, s list, epochs).
    @pytest.mark.parametrize(
        "m,n,nnz_per_row,layout,p,b,s_list,epochs",
        [
            (8124, 112, 21, BLOCK_COLUMN, 1, 1, (1, 2, 8, 64, 512), 2),
            (2000, 100, 10, BLOCK_COLUMN, 4, 1, (8, 64), 1),
            (20000, 20000, 20, BLOCK_ROW, 4, 16, (16, 64), 1),
        ],
    )
    def test_counters_at_the_benchmark_shapes(self, m, n, nnz_per_row, layout, p, b, s_list, epochs):
        """At f as a dataset's density gives it, nnz / (m n), as the benchmark's counter checks use it."""
        f = Fraction(nnz_per_row, n)
        H = epochs * -(-m // b)
        density = (nnz_per_row * m) / (m * n)
        _assert_counters_follow_exact_laws(CostParams(m=m, n=n, p=p, b=b, s=1, H=H, f=density), f, "sgd", layout)
        for s in s_list:
            params = CostParams(m=m, n=n, p=p, b=b, s=s, H=H, f=density)
            _assert_counters_follow_exact_laws(params, f, "casgd", layout)

    def test_unknown_algorithm_or_layout(self):
        with pytest.raises(ValueError):
            theoretical_cost(_params(), "newton", BLOCK_COLUMN)
        with pytest.raises(ValueError):
            theoretical_cost(_params(), "sgd", "block_diagonal")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            _params(f=0.0)
        with pytest.raises(ValueError):
            _params(f=1.5)
        with pytest.raises(ValueError):
            _params(b=0)
        with pytest.raises(ValueError):
            MachineModel(alpha=-1.0, beta=0.0, gamma=0.0)

    def test_batch_above_m_rejected(self):
        # A batch draws distinct rows, so it holds at most m of them.
        assert _params(m=10, b=10).b == 10
        with pytest.raises(ValueError, match="batch size 11 exceeds m=10"):
            _params(m=10, b=11)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "omega"])
    def test_non_finite_machine_parameters_rejected(self, name, value):
        # NaN compares false with everything, so a check of "< 0" alone
        # lets it through.
        with pytest.raises(ValueError, match=name):
            MachineModel(**{"alpha": 1e-6, "beta": 1e-9, "gamma": 1e-11, name: value})

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            MachineModel(alpha=1e-6, beta=1e-9, gamma=1e-11, omega=-1.0)

    def test_omega_is_not_a_problem_size(self):
        with pytest.raises(TypeError):
            _params(omega=5.0)


class TestModeledTime:
    def test_zero_counters(self):
        machine = MachineModel(alpha=1.0, beta=1.0, gamma=1.0)
        assert modeled_time(CostCounters(), machine) == 0.0

    def test_pure_latency(self):
        machine = MachineModel(alpha=1.0, beta=0.0, gamma=0.0)
        assert modeled_time(CostCounters(messages=10), machine) == 10.0

    def test_omega_weighting(self):
        counters = CostCounters(flops=10, sig_evals=2)
        assert modeled_time(counters, MachineModel(alpha=0.0, beta=0.0, gamma=1.0)) == 20.0
        assert modeled_time(counters, MachineModel(alpha=0.0, beta=0.0, gamma=1.0, omega=2.0)) == 14.0
        assert modeled_time(counters, MachineModel(alpha=0.0, beta=0.0, gamma=1.0, omega=0.0)) == 10.0

    def test_latency_dominated_speedup_near_s(self):
        machine = MachineModel(alpha=1.0, beta=0.0, gamma=0.0)
        for s in range(1, 17):
            params = _params(H=1000, s=s, b=1, p=8)
            t_sgd = modeled_time(theoretical_cost(params, "sgd", BLOCK_COLUMN), machine)
            t_ca = modeled_time(theoretical_cost(params, "casgd", BLOCK_COLUMN), machine)
            assert 0.9 * s <= t_sgd / t_ca <= 1.1 * s

    def test_monotone_in_machine_parameters(self):
        counters = CostCounters(flops=100, words_moved=50, messages=10, collectives=5, sig_evals=20)
        base = MachineModel(alpha=1e-6, beta=1e-9, gamma=1e-11)
        t0 = modeled_time(counters, base)
        assert modeled_time(counters, replace(base, alpha=2e-6)) > t0
        assert modeled_time(counters, replace(base, beta=2e-9)) > t0
        assert modeled_time(counters, replace(base, gamma=2e-11)) > t0


class TestCrossover:
    def test_no_latency_prefers_s1(self):
        machine = MachineModel(alpha=0.0, beta=1e-9, gamma=1e-11)
        assert crossover_s(_params(s=64), machine) == 1

    def test_pure_latency_prefers_smax(self):
        machine = MachineModel(alpha=1.0, beta=0.0, gamma=0.0)
        assert crossover_s(_params(s=64, H=6400), machine) == 64

    def test_matches_exhaustive_scan(self):
        params = _params(s=32, H=3200, p=16, f=0.05)
        machine = MachineModel(alpha=5e-6, beta=2e-7, gamma=1e-9)
        times = [
            modeled_time(theoretical_cost(replace(params, s=s), "casgd", BLOCK_COLUMN), machine)
            for s in range(1, 33)
        ]
        want = int(np.argmin(times)) + 1
        assert crossover_s(params, machine) == want
        assert 1 < want < 32  # genuinely mixed regime

    def test_nondecreasing_in_alpha(self):
        params = _params(s=64, H=6400, p=16)
        best = []
        for alpha in np.logspace(-9, -3, 10):
            machine = MachineModel(alpha=float(alpha), beta=1e-9, gamma=1e-11)
            best.append(crossover_s(params, machine))
        assert best == sorted(best)


class TestMeasuredAgainstTheory:
    """Counters from real runs must reproduce the closed forms.

    A dense dataset (f = 1) makes every term exact, including the Gram
    flops whose closed form assumes f^2 n matches per row pair; a uniform
    sparse dataset still pins every non-flop counter exactly.
    """

    @pytest.mark.parametrize("layout", [BLOCK_COLUMN, BLOCK_ROW])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("algo,s", [("sgd", 1), ("casgd", 1), ("casgd", 3)])
    def test_dense_dataset_exact(self, layout, p, algo, s):
        m, n, b, H = 64, 16, 2, 12
        d = synthetic_dataset(m, n, n, seed=5)  # every row fully dense
        assert d.density == 1.0
        params = CostParams(m=m, n=n, p=p, b=b, s=s, H=H, f=1.0)
        cfg = SolverConfig(eta0=1.0, b=b, s=s, total_iterations=H, seed=3, layout=layout, p=p)
        cluster = partition(d, layout, p)
        run = run_casgd(d, cfg, cluster) if algo == "casgd" else run_sgd(d, cfg, cluster)
        want = theoretical_cost(params, algo, layout)
        got = run.counters
        assert got.words_moved == want.words_moved
        assert got.messages == want.messages
        assert got.collectives == want.collectives
        assert got.sig_evals == want.sig_evals
        assert got.flops == want.flops

    @pytest.mark.parametrize("layout", [BLOCK_COLUMN, BLOCK_ROW])
    def test_uniform_sparse_non_flop_counters_exact(self, layout):
        m, n, k, b, s, H = 60, 30, 6, 2, 4, 16
        d = synthetic_dataset(m, n, k, seed=6)
        params = CostParams(m=m, n=n, p=2, b=b, s=s, H=H, f=k / n)
        cfg = SolverConfig(eta0=1.0, b=b, s=s, total_iterations=H, seed=4, layout=layout, p=2)
        run = run_casgd(d, cfg, partition(d, layout, 2))
        want = theoretical_cost(params, "casgd", layout)
        got = run.counters
        assert got.words_moved == want.words_moved
        assert got.messages == want.messages
        assert got.collectives == want.collectives
        assert got.sig_evals == want.sig_evals
