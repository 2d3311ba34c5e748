"""Tests of the benchmark itself: output contract, fail-closed checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import casgd.solvers  # noqa: E402
import casgd.sparse  # noqa: E402
from casgd import BLOCK_COLUMN, BLOCK_ROW, BatchStream, VirtualCluster  # noqa: E402
from perfbench import checks, harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, write_input  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def tiny(name: str, layout: str, p: int, b: int, s_list: tuple[int, ...], epochs: int) -> Workload:
    return Workload(name, 250, 40, 5, "gaussian", 0.05, layout, p, b, s_list, epochs)


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace, seed", [(0, 7), (1, 11)])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr

    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    shown = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ") and len(line.split()) == 3}
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]} | {"error_rate": "ratio"}
    if trace:
        expected |= declared
    assert {name: shown.get(name) for name in expected} == expected
    assert float(next(ln.split()[1] for ln in lines if ln.split()[:1] == ["error_rate"])) == 0.0

    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["costs.residual_max"] == 0
        assert metrics["trace.overhead"] > 0
        assert metrics["solvers.self_s"] <= metrics["solvers.run_s"]
        if workload == "equiv-mushrooms":
            assert metrics["cluster.collective_calls"] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "colp4-synthetic", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_nan_comparison_fails():
    log = checks.CheckLog()
    x = np.ones(3)
    checks.compare_epochs(log, "nan", [x, x], [x, np.array([np.nan, 1.0, 1.0])], epochs=1)
    assert (log.attempted, log.failed) == (3, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infinite_solution_fails():
    log = checks.CheckLog()
    x = np.ones(3)
    checks.compare_epochs(log, "inf", [x, np.full(3, np.inf)], [x, np.full(3, np.inf)], epochs=1)
    assert log.failed == 1


def test_missing_epoch_fails():
    log = checks.CheckLog()
    x = np.ones(3)
    checks.compare_epochs(log, "short", [x, x, x], [x, x], epochs=2)
    assert log.failed == 1
    assert "compared 2 epochs, expected 3" in log.failures[0]


def test_bitwise_check_rejects_a_missing_or_different_solution():
    log = checks.CheckLog()
    checks.bitwise_equal(log, "none", None, np.zeros(2))
    checks.bitwise_equal(log, "sign", np.zeros(2), np.array([0.0, -0.0]))
    checks.bitwise_equal(log, "same", np.ones(2), np.ones(2))
    assert (log.attempted, log.failed) == (3, 2)


def test_row_layout_baseline_reaches_the_round_aligned_point(tmp_path):
    # 250 rows at b=4 is 63 iterations per epoch; 3 epochs end at 189, which
    # s=16 rounds up to 192.  An SGD baseline stopped at 189 misses epoch 3.
    w = tiny("row", BLOCK_ROW, 4, 4, (16,), 3)
    assert w.trace_points(250, 16) == [(1, 64), (2, 128), (3, 192)]
    path = tmp_path / "row.svm"
    write_input(w, 3, str(path))
    log = checks.CheckLog()
    harness.run_pass(w, path, 5, log)
    assert log.failed == 0, log.failures


@pytest.mark.parametrize(
    "w",
    [tiny("col", BLOCK_COLUMN, 1, 1, (1, 8, 64), 2), tiny("row", BLOCK_ROW, 4, 4, (8,), 1)],
    ids=lambda w: w.name,
)
def test_traced_pass_matches_untraced_bitwise(tmp_path, w):
    path = tmp_path / "in.svm"
    write_input(w, 3, str(path))
    originals = (
        vars(BatchStream)["next_indices"],
        vars(VirtualCluster)["allreduce_sum"],
        casgd.solvers.gram_lower_blocks,
    )
    log = checks.CheckLog()
    plain = harness.run_pass(w, path, 3, log)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = harness.run_pass(w, path, 3, log, tracer)
    assert log.failed == 0, log.failures
    assert traced.outputs == plain.outputs

    assert originals == (
        vars(BatchStream)["next_indices"],
        vars(VirtualCluster)["allreduce_sum"],
        casgd.solvers.gram_lower_blocks,
    )
    assert casgd.solvers.gram_lower_blocks is casgd.sparse.gram_lower_blocks
    assert tracing.children_tile(tracer.spans)
    summary = tracing.summarize(tracer.spans)
    assert summary["sampling.calls"] > 0 and summary["model.snapshots"] > 0
    assert 0 < summary["solvers.self_s"] <= summary["solvers.run_s"]
    assert {span.config for span in tracer.spans if span.name == tracing.RUN} == set(plain.outputs)
