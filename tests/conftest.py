import numpy as np
import pytest

from casgd import LabeledDataset, parse_libsvm
from oracles import csr_from_dense


def dataset_from_scaled(dense_scaled, labels) -> LabeledDataset:
    """Dataset whose stored (label-scaled) matrix equals the given dense array."""
    return LabeledDataset.build(
        csr_from_dense(np.asarray(dense_scaled, dtype=np.float64)),
        np.asarray(labels, dtype=np.float64),
    )


def random_dataset(rng: np.random.Generator, m: int, n: int, density: float = 0.3) -> LabeledDataset:
    dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
    labels = rng.choice([-1.0, 1.0], size=m)
    return dataset_from_scaled(dense, labels)


@pytest.fixture
def tiny() -> LabeledDataset:
    # Scaled matrix [[1, 0], [0, -2]] with labels (+1, -1): raw rows [[1,0],[0,2]].
    return dataset_from_scaled([[1.0, 0.0], [0.0, -2.0]], [1.0, -1.0])


def assert_datasets_equal(a: LabeledDataset, b: LabeledDataset) -> None:
    assert a.num_points == b.num_points
    assert a.num_features == b.num_features
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.a_tilde.row_offsets, b.a_tilde.row_offsets)
    np.testing.assert_array_equal(a.a_tilde.col_indices, b.a_tilde.col_indices)
    np.testing.assert_array_equal(a.a_tilde.values, b.a_tilde.values)


def ragged_libsvm_dataset(m: int, n: int, seed: int) -> LabeledDataset:
    """LIBSVM-parsed rows of 0 to 12 entries over n columns, a few of them
    shared by many rows, about a tenth of the entries stored zeros (``k:0``).
    Row 0 is empty and row 1 holds only stored zeros."""
    rng = np.random.default_rng(seed)
    lines = ["+1", "-1 1:0 3:0"]
    for i in range(2, m):
        k = int(rng.integers(0, 13))
        cols = np.unique(np.concatenate([rng.integers(1, 4, size=k // 2), rng.integers(1, n + 1, size=k - k // 2)]))
        vals = np.where(rng.random(len(cols)) < 0.1, 0.0, rng.standard_normal(len(cols)))
        lines.append(" ".join([("+1", "-1")[i % 2]] + [f"{c}:{v:.17g}" for c, v in zip(cols, vals)]))
    return parse_libsvm("\n".join(lines), num_features=n)
