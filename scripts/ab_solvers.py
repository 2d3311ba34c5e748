#!/usr/bin/env python3
"""Time the solvers of a base commit against the working tree's, in one process.

    python3 scripts/ab_solvers.py <base-ref> <workload> [--seed 7] [--repeats 7]

Run from the repository root.  Extracts <base-ref>'s src/ into a temporary
directory with git archive and imports it as the package ``casgd_base``,
next to the working tree's ``casgd``.  Both parse the same input of the
perfbench workload (generated as ``perfbench/workloads.py`` writes it; that
directory is only read) and run its configs as a benchmark pass does: plain
SGD up to the last trace point of any s, then CA-SGD at each s.  Every
solve is timed on its own, alternating which tree runs first, ``--repeats``
times after one untimed warm-up solve per side.  Each config must give the
same ``final_x`` bytes and counters on both sides, or the script exits 1.

Prints each config's best time on each side and the ratio, then their sums.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads OpenBLAS, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import casgd  # noqa: E402
from perfbench.workloads import ETA, WORKLOADS, write_input  # noqa: E402


def extract_sources(ref: str, into: Path) -> Path:
    """``ref``'s src/ tree, written under ``into`` with git archive."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref, "src"], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")
    return into / "src"


def load_package(name: str, src: Path):
    """Import ``src/casgd`` as the package ``name``; its relative imports follow."""
    package = src / "casgd"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def configs(lib, w, m: int, seed: int):
    """(label, solver, config, schedule) of each solve of a benchmark pass."""
    points = {s: w.trace_points(m, s) for s in w.s_list}
    sgd_schedule = sorted({p for pts in points.values() for p in pts}, key=lambda p: (p[1], p[0]))
    common = dict(eta0=ETA, b=w.b, layout=w.layout, p=w.p, seed=seed)
    out = [("sgd", lib.run_sgd, lib.SolverConfig(total_iterations=sgd_schedule[-1][1], **common), sgd_schedule)]
    for s in w.s_list:
        out.append((f"casgd-s{s}", lib.run_casgd, lib.SolverConfig(s=s, epochs=w.epochs, **common), points[s]))
    return out


class Side:
    """One tree's dataset, clusters and configs."""

    def __init__(self, lib, w, text: str, seed: int):
        self.dataset = lib.parse_libsvm(text)
        # Warm the lazy matrix caches, as a benchmark pass's set-up does.
        A = self.dataset.a_tilde
        A.row_slices, A.dense_cache(), A.scipy_csr
        self.solves = {
            label: (solver, cfg, lib.partition(self.dataset, w.layout, w.p), schedule)
            for label, solver, cfg, schedule in configs(lib, w, self.dataset.num_points, seed)
        }

    def solve(self, label: str):
        solver, cfg, cluster, schedule = self.solves[label]
        gc.collect()
        t0 = perf_counter()
        run = solver(self.dataset, cfg, cluster, schedule=schedule)
        return perf_counter() - t0, run.final_x.tobytes(), run.counters.as_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    w = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        base_lib = load_package("casgd_base", extract_sources(args.base, Path(tmp)))
        path = Path(tmp) / "input.svm"
        write_input(w, args.seed, str(path))
        text = path.read_text()
    sides = {"base": Side(base_lib, w, text, args.seed), "head": Side(casgd, w, text, args.seed)}
    del text

    labels = list(sides["head"].solves)
    best = {name: dict.fromkeys(labels, float("inf")) for name in sides}
    mismatched = []
    for label in labels:
        outputs = {name: side.solve(label)[1:] for name, side in sides.items()}
        if outputs["base"] != outputs["head"]:
            mismatched.append(label)
    for rep in range(args.repeats):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        for label in labels:
            for name in order:
                seconds, *_ = sides[name].solve(label)
                best[name][label] = min(best[name][label], seconds)

    print(f"{args.workload} seed={args.seed} base={args.base} best of {args.repeats}")
    print(f"  {'config':<12} {'base ms':>9} {'head ms':>9} {'base/head':>9}")
    for label in labels + ["sum"]:
        if label == "sum":
            b, h = (sum(best[name].values()) for name in ("base", "head"))
        else:
            b, h = best["base"][label], best["head"][label]
        print(f"  {label:<12} {b * 1e3:9.2f} {h * 1e3:9.2f} {b / h:9.3f}")
    for label in mismatched:
        print(f"MISMATCH {label}: final_x or counters differ between base and head", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
