"""The benchmark's workloads and their seeded LIBSVM inputs.

A workload is one synthetic input plus the solver configs a pass runs on
it: plain SGD and CA-SGD at each s of ``s_list``, all at the same layout,
rank count and batch size.  Inputs come only from
``synthetic_dataset`` + ``serialize_libsvm`` so every row carries the same
number of nonzeros, which makes the counter laws exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from casgd import BLOCK_COLUMN, BLOCK_ROW, serialize_libsvm, synthetic_dataset

ETA = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    nnz_per_row: int
    feature_values: str
    label_noise: float
    layout: str
    p: int
    b: int
    s_list: tuple[int, ...]
    epochs: int

    def trace_points(self, m: int, s: int) -> list[tuple[int, int]]:
        """(epoch, iteration) points where CA-SGD at ``s`` is compared with SGD.

        Epoch e ends after e*ceil(m/b) iterations; the row layout only
        materializes the solution at round boundaries, so its points are
        rounded up to a multiple of s, as ``casgd compare`` does.
        """
        per_epoch = -(-m // self.b)
        points = []
        for epoch in range(1, self.epochs + 1):
            it = epoch * per_epoch
            if self.layout == BLOCK_ROW:
                it = s * -(-it // s)
            points.append((epoch, it))
        return points


# Why each workload is here: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="equiv-mushrooms",
            m=8124,
            n=112,
            nnz_per_row=21,
            feature_values="binary",
            label_noise=0.03,
            layout=BLOCK_COLUMN,
            p=1,
            b=1,
            s_list=(1, 2, 8, 64, 512),
            epochs=2,
        ),
        Workload(
            name="colp4-synthetic",
            m=2000,
            n=100,
            nnz_per_row=10,
            feature_values="gaussian",
            label_noise=0.0,
            layout=BLOCK_COLUMN,
            p=4,
            b=1,
            s_list=(8, 64),
            epochs=1,
        ),
        Workload(
            name="rowp4-wide",
            m=20000,
            n=20000,
            nnz_per_row=20,
            feature_values="gaussian",
            label_noise=0.0,
            layout=BLOCK_ROW,
            p=4,
            b=16,
            s_list=(16, 64),
            epochs=1,
        ),
    )
}


def write_input(w: Workload, seed: int, path: str) -> None:
    """Write the workload's LIBSVM input for ``seed`` to ``path``."""
    dataset = synthetic_dataset(
        w.m, w.n, w.nnz_per_row, seed=seed, feature_values=w.feature_values, label_noise=w.label_noise
    )
    Path(path).write_text(serialize_libsvm(dataset))
