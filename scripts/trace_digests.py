#!/usr/bin/env python3
"""Print a digest of SGD and CA-SGD runs over a fixed (dataset, layout, p, b, s) grid.

For every run it prints one line per trace point with the sha256 of the
epoch solution and the cumulative flop, word, message and collective
counters, then one line with the final counters including sig_evals.
Only the public API is used, so two versions of the solvers can be
compared by diffing this script's output, and two runs of one version
must print the same bytes:

    PYTHONPATH=src python3 scripts/trace_digests.py > digests.txt
"""

import hashlib
import sys

import numpy as np

from casgd import (
    BLOCK_COLUMN,
    BLOCK_ROW,
    SolverConfig,
    parse_libsvm,
    partition,
    run_casgd,
    run_sgd,
    serialize_libsvm,
    synthetic_dataset,
)


def ragged_libsvm(m, n, seed):
    """LIBSVM text of m rows with 0 to 15 entries each over n columns, a few
    of them shared, a tenth of the entries stored zeros (``k:0``), parsed
    like an input file."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(m):
        k = int(rng.integers(0, 16))
        cols = np.unique(np.concatenate([rng.integers(1, 9, size=k // 3), rng.integers(1, n + 1, size=k - k // 3)]))
        vals = np.where(rng.random(len(cols)) < 0.1, 0.0, rng.standard_normal(len(cols)))
        lines.append(" ".join([("+1", "-1")[i % 2]] + [f"{c}:{v:.17g}" for c, v in zip(cols, vals)]))
    return parse_libsvm("\n".join(lines), num_features=n)


def datasets():
    mushrooms = synthetic_dataset(8124, 112, 21, seed=7, feature_values="binary", label_noise=0.03)
    return {
        # The acceptance sets: both keep a dense row cache.
        "synthetic2000x100": synthetic_dataset(2000, 100, 10, seed=42, label_noise=0.05),
        "libsvm-scale": parse_libsvm(serialize_libsvm(mushrooms)),
        # Above the dense-cache bound: only the sparse kernels apply.
        "wide700x3000": synthetic_dataset(700, 3000, 5, seed=2),
        # The same, with rows of unequal length, empty rows and stored zeros.
        "ragged800x3000": ragged_libsvm(800, 3000, 9),
        # Such rows under the dense-cache bound, where rounds are taken in
        # blocks and matches counted from the CSR pattern, not the values.
        "ragged600x200": ragged_libsvm(600, 200, 10),
    }


# (dataset, layout, p, b, s values, epochs); s = 0 stands for plain SGD.
GRID = [
    (name, BLOCK_COLUMN, 1, b, (0, 1, 2, 8, 33, 64, 512), 2)
    for name in ("synthetic2000x100", "libsvm-scale", "wide700x3000")
    for b in (1, 3)
] + [
    ("synthetic2000x100", BLOCK_COLUMN, 3, 1, (0, 1, 2, 8, 64), 1),
    ("synthetic2000x100", BLOCK_COLUMN, 4, 4, (0, 1, 2, 8), 1),
    ("wide700x3000", BLOCK_COLUMN, 2, 1, (0, 1, 2, 8, 64), 1),
    ("wide700x3000", BLOCK_COLUMN, 4, 3, (0, 1, 8), 1),
    ("synthetic2000x100", BLOCK_ROW, 1, 1, (0, 1, 2, 8, 64), 1),
    ("synthetic2000x100", BLOCK_ROW, 2, 4, (0, 1, 2, 8, 64), 1),
    ("wide700x3000", BLOCK_ROW, 4, 4, (0, 1, 2, 8, 64), 2),
    ("ragged800x3000", BLOCK_COLUMN, 1, 3, (0, 2, 8, 64), 2),
    # Tiny sparse rounds: each run's rounds are sorted in one block.
    ("ragged800x3000", BLOCK_COLUMN, 1, 1, (0, 2, 4), 2),
    ("ragged800x3000", BLOCK_ROW, 4, 4, (0, 8, 64), 2),
] + [
    # The row benchmark's shape: four rows per rank of every batch, ranks
    # interleaved from s = 2 on.  Rounds of equal-length rows score in one
    # np.vecdot at every s, ragged rounds in one np.bincount by row.
    (name, BLOCK_ROW, 4, 16, (0, 1, 4, 16), 2)
    for name in ("wide700x3000", "ragged800x3000")
] + [("ragged600x200", BLOCK_COLUMN, p, b, (0, 2, 8, 64), 2) for p in (1, 3) for b in (1, 3)]


def main() -> int:
    data = datasets()
    out = sys.stdout
    for name, layout, p, b, s_values, epochs in GRID:
        d = data[name]
        for s in s_values:
            cfg = SolverConfig(eta0=1.0, b=b, s=max(s, 1), epochs=epochs, layout=layout, p=p, seed=123)
            run = (run_casgd if s else run_sgd)(d, cfg, partition(d, layout, p))
            label = f"{name} {layout} p={p} b={b} {'s=' + str(s) if s else 'sgd'}"
            for rec, x in zip(run.trace, run.epoch_solutions):
                digest = hashlib.sha256(x.tobytes()).hexdigest()
                out.write(f"{label} epoch={rec.epoch} {digest} {rec.flops} {rec.words} {rec.messages} {rec.collectives}\n")
            c = run.counters
            out.write(f"{label} final {c.flops} {c.words_moved} {c.messages} {c.collectives} {c.sig_evals}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
