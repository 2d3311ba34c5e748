#!/usr/bin/env python3
"""Time the set-up and solvers of a base commit against the working tree's, in one process.

    python3 scripts/ab_solvers.py <base-ref> <workload> [--seed 7] [--repeats 7]

Run from the repository root.  Extracts <base-ref>'s src/ into a temporary
directory with git archive and imports it as the package ``casgd_base``,
next to the working tree's ``casgd``.  Both read the same input file of the
perfbench workload (generated as ``perfbench/workloads.py`` writes it; that
directory is only read) and set up and run its configs as a benchmark pass
does.  Set-up is reading and parsing the file, partitioning it for every
config and warming the matrix caches.  The configs are plain SGD up to the
last trace point of any s, then CA-SGD at each s.  The set-up, the parse
(``parse_libsvm`` on the text already read, inside the set-up) and every
solve are timed on their own, alternating which tree runs first,
``--repeats`` times after one untimed warm-up per side.  The script exits 1
unless both trees parse the input to the same bytes (CSR arrays, labels and
column count) and each config gives the same outputs on both sides: the
``final_x`` bytes, the final counters, every trace record (epoch, loss,
accuracy and counters, the floats compared bit for bit) and the bytes of
every epoch solution.

Prints the set-up's, the parse's and each config's best time on each side
and their ratio, then the sums of the solves.  Next to them it prints the
median and the range of the repeats' own base/head ratios (each repeat runs
both sides back to back), which show how far the host's noise moves a
config.  Between them it prints the base side's interquartile range as a
share of its median time ("-" below 4 repeats), and marks a row ``noise``
when the median ratio lies within that share of 1.
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
import statistics  # noqa: E402
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

    def __init__(self, lib, w, path: Path, seed: int):
        self.lib, self.w, self.path, self.seed = lib, w, path, seed
        self.set_up()

    def set_up(self) -> tuple[float, float]:
        """Read, parse, partition and warm the lazy matrix caches, as a
        benchmark pass's set-up does; returns its seconds and the parse's."""
        lib, w = self.lib, self.w
        gc.collect()
        t0 = perf_counter()
        text = self.path.read_text()
        t_parse = perf_counter()
        dataset = lib.parse_libsvm(text)
        parse_seconds = perf_counter() - t_parse
        del text
        solves = {
            label: (solver, cfg, lib.partition(dataset, w.layout, w.p), schedule)
            for label, solver, cfg, schedule in configs(lib, w, dataset.num_points, self.seed)
        }
        A = dataset.a_tilde
        A.row_slices, A.dense_cache(), A.scipy_csr
        seconds = perf_counter() - t0
        self.dataset, self.solves = dataset, solves
        return seconds, parse_seconds

    def parsed(self) -> dict[str, bytes | int]:
        """The parsed input's arrays as bytes, and its column count."""
        A = self.dataset.a_tilde
        return {
            "row_offsets": A.row_offsets.tobytes(),
            "col_indices": A.col_indices.tobytes(),
            "values": A.values.tobytes(),
            "labels": self.dataset.labels.tobytes(),
            "num_cols": A.num_cols,
        }

    def solve(self, label: str):
        """The solve's seconds, and its outputs by name."""
        solver, cfg, cluster, schedule = self.solves[label]
        gc.collect()
        t0 = perf_counter()
        run = solver(self.dataset, cfg, cluster, schedule=schedule)
        seconds = perf_counter() - t0
        return seconds, {
            "final_x": run.final_x.tobytes(),
            "counters": run.counters.as_dict(),
            "trace": [
                (t.epoch, float(t.loss).hex(), float(t.accuracy).hex(), t.flops, t.words, t.messages, t.collectives)
                for t in run.trace
            ],
            "epoch_solutions": [x.tobytes() for x in run.epoch_solutions],
        }


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
        sides = {"base": Side(base_lib, w, path, args.seed), "head": Side(casgd, w, path, args.seed)}
        # Seconds per label, side and repeat.
        times = {label: {name: [] for name in sides} for label in ("set-up", "parse")}
        for rep in range(args.repeats):
            for name in ("base", "head") if rep % 2 == 0 else ("head", "base"):
                setup_seconds, parse_seconds = sides[name].set_up()
                times["set-up"][name].append(setup_seconds)
                times["parse"][name].append(parse_seconds)

    parsed = {name: side.parsed() for name, side in sides.items()}
    mismatched = []
    differ = [key for key, value in parsed["base"].items() if parsed["head"][key] != value]
    if differ:
        mismatched.append(("parse", differ))
    labels = list(sides["head"].solves)
    times.update({label: {name: [] for name in sides} for label in labels})
    for label in labels:
        outputs = {name: side.solve(label)[1] for name, side in sides.items()}
        differ = [key for key, value in outputs["base"].items() if outputs["head"][key] != value]
        if differ:
            mismatched.append((label, differ))
    for rep in range(args.repeats):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        for label in labels:
            for name in order:
                seconds, _ = sides[name].solve(label)
                times[label][name].append(seconds)
    times["sum"] = {name: [sum(values) for values in zip(*(times[label][name] for label in labels))] for name in sides}

    print(f"{args.workload} seed={args.seed} base={args.base} best of {args.repeats}; base/head ratios per repeat")
    print(f"  {'config':<12} {'base ms':>9} {'head ms':>9} {'base/head':>9} {'median':>7} {'base IQR':>8}  range")
    for label, runs in times.items():
        b, h = min(runs["base"]), min(runs["head"])
        ratios = [x / y for x, y in zip(runs["base"], runs["head"])]
        median = statistics.median(ratios)
        spread = f"{min(ratios):.3f}-{max(ratios):.3f}"
        iqr, noise = "-", ""
        if args.repeats >= 4:
            q1, _, q3 = statistics.quantiles(runs["base"], n=4)
            share = (q3 - q1) / statistics.median(runs["base"])
            iqr, noise = f"{share:.3f}", "  noise" if abs(median - 1) <= share else ""
        print(f"  {label:<12} {b * 1e3:9.2f} {h * 1e3:9.2f} {b / h:9.3f} {median:7.3f} {iqr:>8}  {spread}{noise}")
    for label, differ in mismatched:
        print(f"MISMATCH {label}: {', '.join(differ)} differ between base and head", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
