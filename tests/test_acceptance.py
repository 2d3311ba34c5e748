"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The numerical
equivalence runs (criterion 1) execute 100 epochs of every solver on two
datasets and dominate the suite's runtime.
"""

import math
import time

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
    parse_libsvm,
    partition,
    relative_solution_error,
    run_casgd,
    run_sgd,
    serialize_libsvm,
    theoretical_cost,
)
from casgd.cli import main
from casgd.datagen import synthetic_dataset

from conftest import random_dataset
from oracles import finite_difference_gradient, full_gradient

S_VALUES = (2, 8, 64, 512)
EPOCHS = 100
ETA = 1.0
SEED = 123


def _report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def equivalence_runs():
    """SGD plus s-step runs, 100 epochs, b=1, on both acceptance datasets."""
    datasets = {
        "synthetic2000x100": synthetic_dataset(2000, 100, 10, seed=42, label_noise=0.05),
        "libsvm-scale": None,  # mushrooms-sized, round-tripped through the parser
    }
    raw = synthetic_dataset(8124, 112, 21, seed=7, feature_values="binary", label_noise=0.03)
    datasets["libsvm-scale"] = parse_libsvm(serialize_libsvm(raw))

    out = {}
    t0 = time.perf_counter()
    for name, d in datasets.items():
        cfg = SolverConfig(eta0=ETA, b=1, epochs=EPOCHS, seed=SEED)
        sgd = run_sgd(d, cfg, partition(d, BLOCK_COLUMN, 1))
        cas = {}
        for s in S_VALUES:
            cfg_s = SolverConfig(eta0=ETA, b=1, s=s, epochs=EPOCHS, seed=SEED)
            cas[s] = run_casgd(d, cfg_s, partition(d, BLOCK_COLUMN, 1))
        out[name] = (d, sgd, cas)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_numerical_equivalence(equivalence_runs):
    elapsed = equivalence_runs["elapsed"]
    worst_rel = 0.0
    worst_acc_points = 0.0
    for name in ("synthetic2000x100", "libsvm-scale"):
        d, sgd, cas = equivalence_runs[name]
        m = d.num_points
        for s, ca in cas.items():
            assert len(sgd.epoch_solutions) == len(ca.epoch_solutions) == EPOCHS + 1
            for t_sgd, t_ca, xs, xc in zip(sgd.trace, ca.trace, sgd.epoch_solutions, ca.epoch_solutions):
                rel = relative_solution_error(xs, xc)
                worst_rel = max(worst_rel, rel)
                worst_acc_points = max(worst_acc_points, abs(t_sgd.accuracy - t_ca.accuracy) * m)
    ok = worst_rel <= 1e-10 and worst_acc_points <= 1.0 + 1e-9 and elapsed < 120.0
    _report(
        1,
        "numerical equivalence",
        ok,
        f"(max rel err {worst_rel:.2e}, max accuracy gap {worst_acc_points:.2f} points, runtime {elapsed:.1f}s)",
    )


def test_error_growth_trend_in_s(equivalence_runs):
    # the max-over-epochs deviation should not shrink from s=2 to s=512
    for name in ("synthetic2000x100", "libsvm-scale"):
        _, sgd, cas = equivalence_runs[name]

        def max_rel(run):
            return max(
                relative_solution_error(a, b)
                for a, b in zip(sgd.epoch_solutions, run.epoch_solutions)
            )

        assert max_rel(cas[512]) >= max_rel(cas[2]), name


def test_criterion_2_degenerate_exactness():
    d = synthetic_dataset(512, 48, 8, seed=19, label_noise=0.05)
    cfg = SolverConfig(eta0=ETA, b=1, epochs=5, seed=77)
    sgd = run_sgd(d, cfg, partition(d, BLOCK_COLUMN, 1))
    ca = run_casgd(d, cfg, partition(d, BLOCK_COLUMN, 1))
    worst_s1 = max(
        relative_solution_error(a, b) for a, b in zip(sgd.epoch_solutions, ca.epoch_solutions)
    )

    d2 = synthetic_dataset(100, 20, 6, seed=11)
    run = run_sgd(d2, SolverConfig(eta0=ETA, b=100, epochs=50, seed=3), partition(d2, BLOCK_COLUMN, 1))
    x = np.zeros(20)
    worst_gd = 0.0
    for snap in run.epoch_solutions[1:]:
        x = x - ETA * full_gradient(d2, x)
        worst_gd = max(worst_gd, relative_solution_error(x, snap))

    ok = worst_s1 <= 1e-15 and worst_gd <= 1e-12
    _report(2, "degenerate exactness", ok, f"(s=1 rel {worst_s1:.2e}, b=m vs GD rel {worst_gd:.2e})")


def test_criterion_3_latency_law():
    d = synthetic_dataset(256, 64, 8, seed=23)
    H = 1000
    checked = 0
    for p in (1, 2, 4, 8):
        log_p = (p - 1).bit_length()
        sgd_col = run_sgd(
            d, SolverConfig(eta0=ETA, b=1, total_iterations=H, seed=1, p=p), partition(d, BLOCK_COLUMN, p)
        )
        assert sgd_col.counters.collectives == H
        assert sgd_col.counters.messages == H * log_p
        sgd_row = run_sgd(
            d,
            SolverConfig(eta0=ETA, b=8, total_iterations=H, seed=1, p=p, layout=BLOCK_ROW),
            partition(d, BLOCK_ROW, p),
        )
        assert sgd_row.counters.collectives == H
        assert sgd_row.counters.messages == H * log_p
        checked += 2
        for s in (1, 2, 4, 8, 16):
            rounds = -(-H // s)
            col = run_casgd(
                d,
                SolverConfig(eta0=ETA, b=1, s=s, total_iterations=H, seed=1, p=p),
                partition(d, BLOCK_COLUMN, p),
            )
            assert col.counters.collectives == rounds, (p, s)
            assert col.counters.messages == rounds * log_p, (p, s)
            row = run_casgd(
                d,
                SolverConfig(eta0=ETA, b=8, s=s, total_iterations=H, seed=1, p=p, layout=BLOCK_ROW),
                partition(d, BLOCK_ROW, p),
            )
            assert row.counters.collectives == 2 * rounds, (p, s)
            assert row.counters.messages == 2 * rounds * log_p, (p, s)
            checked += 2
    _report(3, "latency law", True, f"({checked} runs, H={H}, p in {{1,2,4,8}}, s in {{1,2,4,8,16}})")


def test_criterion_4_bandwidth_law():
    d = synthetic_dataset(256, 64, 8, seed=23)
    n = d.num_features
    checked = []
    for s, b in [(2, 1), (8, 1), (4, 3), (16, 2)]:
        rounds = 5
        run = run_casgd(
            d,
            SolverConfig(eta0=ETA, b=b, s=s, total_iterations=rounds * s, seed=2),
            partition(d, BLOCK_COLUMN, 1),
        )
        assert run.counters.words_moved == rounds * (s * s * b * b + s * b), (s, b)
        checked.append(f"casgd col s={s} b={b}")
    for b in (1, 4):
        H = 100
        sgd_col = run_sgd(
            d, SolverConfig(eta0=ETA, b=b, total_iterations=H, seed=2), partition(d, BLOCK_COLUMN, 1)
        )
        assert sgd_col.counters.words_moved == H * b
        sgd_row = run_sgd(
            d,
            SolverConfig(eta0=ETA, b=b, total_iterations=H, seed=2, layout=BLOCK_ROW),
            partition(d, BLOCK_ROW, 1),
        )
        assert sgd_row.counters.words_moved == H * n
    _report(4, "bandwidth law", True, f"(s^2 b^2 + s b per round: {', '.join(checked)}; sgd col b, row n)")


def test_criterion_5_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, 50, 10, density=0.4)
        x = rng.uniform(-2.0, 2.0, size=10)
        g = full_gradient(d, x)
        fd = finite_difference_gradient(d, x, h=1e-6)
        worst = max(worst, float(np.linalg.norm(g - fd) / np.linalg.norm(fd)))
    ok = worst <= 1e-6
    _report(5, "gradient correctness", ok, f"(20 instances, max rel err {worst:.2e})")


def test_criterion_6_loss_anchor(equivalence_runs):
    log2 = math.log(2)
    worst_anchor = 0.0
    final_losses = []
    for name in ("synthetic2000x100", "libsvm-scale"):
        _, sgd, cas = equivalence_runs[name]
        for run in [sgd, *cas.values()]:
            worst_anchor = max(worst_anchor, abs(run.trace[0].loss - log2))
            final_losses.append(run.trace[-1].loss)
    ok = worst_anchor <= 1e-15 and all(loss < log2 for loss in final_losses)
    _report(
        6,
        "loss anchor",
        ok,
        f"(epoch-0 deviation {worst_anchor:.1e}, final losses all below log 2: max {max(final_losses):.4f})",
    )


def test_criterion_7_modeled_speedup():
    latency_only = MachineModel(alpha=1e-6, beta=0.0, gamma=0.0)
    worst_ratio_err = 0.0
    for s in range(1, 17):
        params = CostParams(m=8124, n=112, p=8, b=1, s=s, H=1000, f=0.19)
        t_sgd = modeled_time(theoretical_cost(params, "sgd", BLOCK_COLUMN), latency_only)
        t_ca = modeled_time(theoretical_cost(params, "casgd", BLOCK_COLUMN), latency_only)
        ratio = t_sgd / t_ca
        assert 0.9 * s <= ratio <= 1.1 * s, s
        worst_ratio_err = max(worst_ratio_err, abs(ratio / s - 1.0))
    sweep = []
    params = CostParams(m=8124, n=112, p=16, b=1, s=64, H=6400, f=0.19)
    for alpha in np.logspace(-9, -3, 10):
        machine = MachineModel(alpha=float(alpha), beta=1e-9, gamma=1e-11)
        sweep.append(crossover_s(params, machine))
    ok = sweep == sorted(sweep)
    _report(
        7,
        "modeled speedup",
        ok,
        f"(latency-bound ratio within {worst_ratio_err:.1%} of s; crossover sweep {sweep})",
    )


def test_criterion_8_csv_determinism(tmp_path):
    d = synthetic_dataset(128, 24, 5, seed=9, label_noise=0.05)
    data = tmp_path / "d.svm"
    data.write_text(serialize_libsvm(d))
    identical = True
    for algo_flags in (["--algo", "sgd"], ["--algo", "casgd", "--s-step", "8"]):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(
                ["train", "--data", str(data), *algo_flags, "--epochs", "5", "--eta", "1.0",
                 "--seed", "17", "--trace", str(path)]
            )
            assert code == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    _report(8, "trace determinism", identical, "(byte-identical CSV for sgd and casgd reruns)")
