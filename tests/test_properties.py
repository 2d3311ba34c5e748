"""Property tests of the round loop over random (layout, p, b, s).

Drawn cases include empty rows (low-density data), p equal to n in the
column layout, b equal to m, rows repeating across batches (small m,
several epochs), s larger than the whole iteration budget, and matrices
with and without a dense row cache.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casgd.solvers
import casgd.sparse
from casgd import (
    BLOCK_COLUMN,
    BLOCK_ROW,
    CostParams,
    SolverConfig,
    partition,
    relative_solution_error,
    run_casgd,
    run_sgd,
    theoretical_cost,
)
from casgd.datagen import synthetic_dataset
from casgd.sampling import BatchStream
from casgd.sparse import RoundEntries, RowBlock, batch_scores
from casgd.solvers import epoch_schedule, iterations_per_epoch
from conftest import random_dataset
from oracles import RowBlockSelector, run_reference

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw):
    """(layout, m, n, p, b, s, epochs) with p | b in the row layout."""
    layout = draw(st.sampled_from([BLOCK_COLUMN, BLOCK_ROW]))
    m = draw(st.integers(2, 30))
    n = draw(st.integers(1, 10))
    b = min(draw(st.sampled_from([1, 2, 3, m // 2 + 1, m])), m)
    if layout == BLOCK_COLUMN:
        p = min(draw(st.sampled_from([1, 2, 3, 4, n])), n)
    else:
        p = draw(st.sampled_from([d for d in range(1, min(b, m, 4) + 1) if b % d == 0]))
    epochs = draw(st.integers(1, 3))
    budget = epochs * iterations_per_epoch(m, b)
    s = draw(st.sampled_from([1, 2, 3, 5, 8, 33, budget + 1]))
    return layout, m, n, p, b, s, epochs


def _runs(d, layout, p, b, s, epochs, seed, oracle=False):
    """SGD and CA-SGD at s, traced at the same (round-aligned in rows)
    points, and with ``oracle`` the textbook loop over the batches the runs
    draw, traced there too (else None)."""
    m = d.num_points
    H = epochs * iterations_per_epoch(m, b)
    sched = epoch_schedule(m, b, H, s if layout == BLOCK_ROW else 1)
    iterations = sched[-1][1] if layout == BLOCK_ROW else H
    sgd_cfg = SolverConfig(eta0=1.0, b=b, total_iterations=iterations, layout=layout, p=p, seed=seed)
    ca_cfg = SolverConfig(eta0=1.0, b=b, s=s, epochs=epochs, layout=layout, p=p, seed=seed)
    cluster = partition(d, layout, p)
    sgd = run_sgd(d, sgd_cfg, cluster, schedule=sched)
    ca = run_casgd(d, ca_cfg, partition(d, layout, p), schedule=sched)
    if not oracle:
        return sgd, ca, None
    # Row ranks draw their own rows of every batch, as the solvers' stream does.
    row = layout == BLOCK_ROW
    stream = BatchStream(seed, m, b, cluster.layout.boundaries if row else None)
    batches = [RowBlockSelector(np.array(ids)) for ids in stream.peek_indices(iterations)]
    return sgd, ca, run_reference(d, sgd_cfg, batches, sched)


def test_round_loop_matches_sgd():
    # A support ratio of 0 gives every sparse row round a support, so rounds
    # with entries reach the scatter over a support (at n <= 10 the default
    # ratio gives one only to rounds of empty rows).  A ``dsyrk`` threshold
    # of 2 rows gives dense Grams of small s*b one ``dsyrk`` per round, at
    # b > 1 and in blocks of several rounds, and a block budget of 1 byte
    # gives every block one round.  Spies on the round kernels count the
    # paths the examples reach, each of which must run: among them the
    # gathers of whole rows (a matrix or window of one width) and of each
    # entry (ragged rows), dense Grams by ``dsyrk`` (also at b > 1 in
    # blocks of several rounds), blocks of
    # one round and of several, one column rank's one-row rounds over a
    # dense cache, which read the rows of one gather in place, and more
    # column ranks at b = 1, at s > 1 and without a dense cache.  SGD must
    # stay within the bound of a textbook loop over the batches the run
    # draws, which shares none of the solvers' kernels.
    seen = Counter()
    scores, gradients, add_gram, row_block = batch_scores, RowBlock.gradients, RowBlock.add_gram, RowBlock.__init__
    gather, gather_rows, gram = casgd.sparse._gather, casgd.solvers.gather_rows, casgd.solvers.gram_lower_blocks
    run_rounds = casgd.solvers._run_rounds

    def run_rounds_spy(dataset, cfg, *args, **kwargs):
        dense = dataset.a_tilde.dense_cache() is not None
        if (cfg.layout, cfg.p, cfg.s * cfg.b) == (BLOCK_COLUMN, 1, 1) and dense:
            seen["one-row rounds, dense cache"] += 1
        if cfg.layout == BLOCK_COLUMN and cfg.p > 1 and cfg.b == 1:
            if cfg.s > 1:
                seen["column ranks, b = 1, s > 1"] += 1
            if not dense:
                seen["column ranks, b = 1, no dense cache"] += 1
        return run_rounds(dataset, cfg, *args, **kwargs)

    def block_seen(row_ids):
        seen["one-round blocks" if len(row_ids) == 1 else "multi-round blocks"] += 1

    def gather_spy(A, flat):
        seen["whole rows" if A.width is not None else "each entry"] += 1
        return gather(A, flat)

    def scores_spy(dataset, row_ids, x, rows=None, out=None):
        if isinstance(rows, RoundEntries):
            seen["vecdot" if rows.row_of is None else "bincount"] += 1
        return scores(dataset, row_ids, x, rows, out)

    def gradients_spy(entries, k, w):
        support = entries.supports[k]
        if support is not None and len(support):
            seen["support"] += 1
        return gradients(entries, k, w)

    def add_gram_spy(entries, k, G):
        if len(entries.rounds[k].targets):
            seen["gram pairs"] += 1
        add_gram(entries, k, G)

    def row_block_spy(entries, dataset, row_ids, *args):
        if dataset.a_tilde.dense_cache() is not None:
            seen["row, dense cache"] += 1
        block_seen(row_ids)
        row_block(entries, dataset, row_ids, *args)

    def gather_rows_spy(dataset, row_ids, batches):
        block_seen(row_ids)
        return gather_rows(dataset, row_ids, batches)

    def gram_spy(dataset, row_ids, *args, **kwargs):
        if dataset.a_tilde.dense_cache() is not None and np.shape(row_ids)[-1] >= casgd.sparse._SYRK_MIN_ROWS:
            seen["dense gram by dsyrk"] += 1
            if args[0] > 1 and np.ndim(row_ids) == 2 and len(row_ids) > 1:
                seen["dense gram by dsyrk, b > 1, several rounds"] += 1
        return gram(dataset, row_ids, *args, **kwargs)

    with (
        mock.patch.object(casgd.solvers, "batch_scores", scores_spy),
        mock.patch.object(RowBlock, "gradients", gradients_spy),
        mock.patch.object(RowBlock, "add_gram", add_gram_spy),
        mock.patch.object(RowBlock, "__init__", row_block_spy),
        mock.patch.object(casgd.sparse, "_gather", gather_spy),
        mock.patch.object(casgd.solvers, "gather_rows", gather_rows_spy),
        mock.patch.object(casgd.solvers, "gram_lower_blocks", gram_spy),
        mock.patch.object(casgd.solvers, "_run_rounds", run_rounds_spy),
    ):
        _round_loop_matches_sgd()
    assert set(seen) == {
        "vecdot",
        "bincount",
        "support",
        "gram pairs",
        "row, dense cache",
        "whole rows",
        "each entry",
        "dense gram by dsyrk",
        "dense gram by dsyrk, b > 1, several rounds",
        "one-round blocks",
        "multi-round blocks",
        "one-row rounds, dense cache",
        "column ranks, b = 1, s > 1",
        "column ranks, b = 1, no dense cache",
    }, seen


@PROPERTY_SETTINGS
# The drawn examples miss b = 1 at one column rank over a dense cache, and
# at more column ranks at s > 1 and without a dense cache, and per-round
# ``dsyrk`` at b > 1 in blocks of several rounds.
@example(
    grid=(BLOCK_COLUMN, 25, 6, 1, 1, 3, 2),
    density=0.3,
    dense=True,
    support_ratio=casgd.sparse._SUPPORT_MIN_RATIO,
    syrk_rows=casgd.sparse._SYRK_MIN_ROWS,
    block_bytes=casgd.solvers._BLOCK_BYTES,
    seed=5,
)
@example(
    grid=(BLOCK_COLUMN, 25, 6, 3, 1, 5, 2),
    density=0.3,
    dense=True,
    support_ratio=casgd.sparse._SUPPORT_MIN_RATIO,
    syrk_rows=casgd.sparse._SYRK_MIN_ROWS,
    block_bytes=casgd.solvers._BLOCK_BYTES,
    seed=6,
)
@example(
    grid=(BLOCK_COLUMN, 20, 8, 2, 1, 8, 2),
    density=0.3,
    dense=False,
    support_ratio=casgd.sparse._SUPPORT_MIN_RATIO,
    syrk_rows=casgd.sparse._SYRK_MIN_ROWS,
    block_bytes=casgd.solvers._BLOCK_BYTES,
    seed=7,
)
@example(
    grid=(BLOCK_COLUMN, 25, 6, 1, 3, 5, 2),
    density=0.3,
    dense=True,
    support_ratio=casgd.sparse._SUPPORT_MIN_RATIO,
    syrk_rows=2,
    block_bytes=casgd.solvers._BLOCK_BYTES,
    seed=8,
)
@given(
    grid=grids(),
    density=st.sampled_from([0.05, 0.3, 1.0]),
    dense=st.booleans(),
    support_ratio=st.sampled_from([0, casgd.sparse._SUPPORT_MIN_RATIO]),
    syrk_rows=st.sampled_from([casgd.sparse._SYRK_MIN_ROWS, 2]),
    block_bytes=st.sampled_from([casgd.solvers._BLOCK_BYTES, 1]),
    seed=st.integers(0, 2**32),
)
def _round_loop_matches_sgd(grid, density, dense, support_ratio, syrk_rows, block_bytes, seed):
    layout, m, n, p, b, s, epochs = grid
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, m, n, density)
    if not dense:
        with mock.patch.object(casgd.sparse, "_DENSE_CACHE_MAX_CELLS", 0):
            assert d.a_tilde.dense_cache() is None
    with (
        mock.patch.object(casgd.sparse, "_SUPPORT_MIN_RATIO", support_ratio),
        mock.patch.object(casgd.sparse, "_SYRK_MIN_ROWS", syrk_rows),
        mock.patch.object(casgd.solvers, "_BLOCK_BYTES", block_bytes),
    ):
        sgd, ca, reference = _runs(d, layout, p, b, s, epochs, seed, oracle=True)
        # s = 1 is plain SGD, bit for bit.
        sgd1, ca1, _ = _runs(d, layout, p, b, 1, epochs, seed)
    assert len(ca.epoch_solutions) == len(sgd.epoch_solutions) == len(reference.epoch_solutions) == epochs + 1
    # SGD against a loop that shares none of its kernels, CA-SGD against SGD.
    for x_ref, x_sgd, x_ca in zip(reference.epoch_solutions, sgd.epoch_solutions, ca.epoch_solutions):
        assert relative_solution_error(x_ref, x_sgd) <= 1e-10
        assert relative_solution_error(x_sgd, x_ca) <= 1e-10
    for x_sgd, x_ca in zip(sgd1.epoch_solutions, ca1.epoch_solutions):
        assert x_sgd.tobytes() == x_ca.tobytes()


@PROPERTY_SETTINGS
@given(
    grid=grids(),
    nnz=st.integers(1, 10),
    support_ratio=st.sampled_from([0, casgd.sparse._SUPPORT_MIN_RATIO]),
    syrk_rows=st.sampled_from([casgd.sparse._SYRK_MIN_ROWS, 2]),
    block_bytes=st.sampled_from([casgd.solvers._BLOCK_BYTES, 1]),
    seed=st.integers(0, 2**32),
)
def test_counters_match_closed_forms_on_uniform_rows(grid, nnz, support_ratio, syrk_rows, block_bytes, seed):
    # The kernel settings are drawn as in ``_round_loop_matches_sgd``: the
    # counters must not depend on the round's support, Gram kernel or blocks.
    layout, m, n, p, b, s, epochs = grid
    d = synthetic_dataset(m, n, min(nnz, n), seed=seed)
    H = epochs * iterations_per_epoch(m, b)
    for algorithm, run, steps in (("sgd", run_sgd, 1), ("casgd", run_casgd, s)):
        cfg = SolverConfig(eta0=1.0, b=b, s=steps, total_iterations=H, layout=layout, p=p, seed=seed)
        with (
            mock.patch.object(casgd.sparse, "_SUPPORT_MIN_RATIO", support_ratio),
            mock.patch.object(casgd.sparse, "_SYRK_MIN_ROWS", syrk_rows),
            mock.patch.object(casgd.solvers, "_BLOCK_BYTES", block_bytes),
        ):
            got = run(d, cfg, partition(d, layout, p)).counters.as_dict()
        want = theoretical_cost(CostParams(m=m, n=n, p=p, b=b, s=steps, H=H, f=d.density), algorithm, layout)
        want = want.as_dict()
        for name in ("words", "messages", "collectives", "sig_evals"):
            assert got[name] == want[name], (algorithm, name)
