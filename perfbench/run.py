"""Run one casgd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload equiv-mushrooms --seed 7 --seconds 30 --trace 0

Run from the repository root.  The input is generated from ``--seed`` in
a child process and written to a temporary directory under
``.perfbench_work/``; the measuring process sees only the LIBSVM file.
Passes repeat for ``--seconds``.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` every other pass is traced and the
result holds the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (output checks)
and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads OpenBLAS: the workloads are sized
# for a single-threaded process on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "casgd" / "__init__.py").is_file():
    sys.exit(f"perfbench: no casgd sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from perfbench import harness, workloads  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"

# Units come from the declaration, so the two cannot drift apart.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
UNITS["error_rate"] = "ratio"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def calibration_probe() -> float:
    """Median seconds of a fixed pure-Python loop; tracks host speed drift."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - t0)
    return statistics.median(times)


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "calibration_s": calibration_probe(),
    }


def generate_input(workload: workloads.Workload, seed: int, path: Path) -> None:
    """Write the workload input in a child process, keeping its memory out of peak_rss_mb."""
    code = (
        "import sys; from perfbench.workloads import WORKLOADS, write_input; "
        "write_input(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    subprocess.run([sys.executable, "-c", code, workload.name, str(seed), str(path)], env=env, check=True, timeout=170)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    machine = machine_record()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        path = Path(tmp) / f"{workload.name}.svm"
        generate_input(workload, args.seed, path)
        result = harness.measure(workload, path, args.seed, args.seconds, traced=bool(args.trace))

    log = result.log
    shown = result.end_to_end()
    shown["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = result.per_layer()
        shown.update(metrics)
        spans_path = WORK_DIR / f"spans-{workload.name}.jsonl"
        result.last_tracer.write(spans_path)
    else:
        metrics = dict(shown)
    shown["error_rate"] = log.failed / log.attempted

    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"passes={len(result.plain)} traced_passes={len(result.traced)}"
    )
    print("machine " + json.dumps(machine))
    print("passes " + json.dumps([[p.setup_s, p.solve_s, p.verdict_s, p.rows, p.solve_times] for p in result.plain]))
    if args.trace:
        print(f"spans {spans_path.relative_to(ROOT)}")
    for name, value in shown.items():
        print(f"  {name:<26} {value:<24} {UNITS[name]}")
    print(f"  checks: {log.failed} failed of {log.attempted}")
    for failure in log.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
