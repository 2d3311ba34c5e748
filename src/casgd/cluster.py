"""Simulated p-rank distributed-memory machine with exact cost counters.

Collectives follow a binomial-tree model: every collective adds
``ceil(log2 p)`` messages and one collective to the counters, and moves
its payload length in words (allreduce: the buffer length; allgather:
the total concatenated length).  Payload accounting is p-independent so
the counter laws hold uniformly down to p = 1.  Every collective is
counted through ``VirtualCluster.count``, which a caller may also call
alone: for a collective whose result every rank already holds, or for
many rounds' collectives at once.

Reductions sum rank buffers in a fixed ascending-rank tree (pairs at
distance 1, then 2, 4, ...), making every run bit-reproducible.  Ranks
execute sequentially inside each phase; replicated results are
represented once since all rank copies are bitwise equal.

Flop accounting convention (shared with the closed-form cost model):
one flop per sparse multiply-add and per dense axpy element; scalar
nonlinearity evaluations are tallied separately in ``sig_evals`` and
weighted only when converting counters to modeled time.  Counters track
the modeled dataflow of the algorithms, not incidental simulator
shortcuts; trace extraction (loss/accuracy snapshots) is observer access
and never touches the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .sparse import LabeledDataset

__all__ = [
    "BLOCK_COLUMN",
    "BLOCK_ROW",
    "CostCounters",
    "LayoutDescriptor",
    "VirtualCluster",
    "partition",
    "tree_message_count",
]

BLOCK_COLUMN = "block_column"
BLOCK_ROW = "block_row"


def tree_message_count(p: int) -> int:
    """ceil(log2 p): rounds of a binomial-tree collective over p ranks."""
    return (p - 1).bit_length()


@dataclass
class CostCounters:
    flops: int = 0
    words_moved: int = 0
    messages: int = 0
    collectives: int = 0
    sig_evals: int = 0

    def reset(self) -> None:
        self.flops = 0
        self.words_moved = 0
        self.messages = 0
        self.collectives = 0
        self.sig_evals = 0

    def snapshot(self) -> "CostCounters":
        return replace(self)

    def as_dict(self) -> dict[str, int]:
        return {
            "flops": self.flops,
            "words": self.words_moved,
            "messages": self.messages,
            "collectives": self.collectives,
            "sig_evals": self.sig_evals,
        }


@dataclass(frozen=True)
class LayoutDescriptor:
    """Contiguous near-equal 1D partition of columns or rows over p ranks."""

    kind: str
    p: int
    boundaries: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, kind: str, p: int, num_rows: int, num_cols: int) -> "LayoutDescriptor":
        if kind not in (BLOCK_COLUMN, BLOCK_ROW):
            raise ValueError(f"unknown layout kind {kind!r}")
        if p < 1:
            raise ValueError("p must be at least 1")
        extent = num_cols if kind == BLOCK_COLUMN else num_rows
        axis = "columns" if kind == BLOCK_COLUMN else "rows"
        if p > extent:
            raise ValueError(f"p={p} exceeds the number of {axis} ({extent})")
        base, rem = divmod(extent, p)
        bounds = []
        start = 0
        for rank in range(p):
            size = base + (1 if rank < rem else 0)
            bounds.append((start, start + size))
            start += size
        return cls(kind, p, tuple(bounds))


class VirtualCluster:
    """Single-owner simulated cluster: a layout, the shared dataset, counters."""

    def __init__(self, dataset: LabeledDataset, layout: LayoutDescriptor):
        self.dataset = dataset
        self.layout = layout
        self.counters = CostCounters()

    @property
    def p(self) -> int:
        return self.layout.p

    def count(self, words: int, collectives: int = 1) -> None:
        """Count ``collectives`` collectives of ``words`` words each.

        Each adds ``ceil(log2 p)`` messages, so none at p = 1, where
        nothing moves between ranks.
        """
        c = self.counters
        c.words_moved += collectives * words
        c.messages += collectives * tree_message_count(self.layout.p)
        c.collectives += collectives

    def allreduce_sum(self, buffers: list[np.ndarray], words: int | None = None) -> np.ndarray:
        """Elementwise sum of equal-length rank buffers, replicated on all ranks.

        Summation follows the fixed ascending-rank tree.  Its first level
        forms fresh sums of rank pairs and later levels add into those, so
        no input is copied or written, and with p > 1 the result shares no
        memory with an input.  With p = 1 the input buffer is returned as-is
        (callers must treat it read-only).
        ``words`` is the modeled length counted for the collective (default:
        the buffer length); a caller that sends only the entries its ranks
        can have made nonzero still counts the whole vector.
        """
        p = self.p
        if len(buffers) != p:
            raise ValueError(f"expected {p} rank buffers, got {len(buffers)}")
        length = len(buffers[0])
        for buf in buffers[1:]:
            if len(buf) != length:
                raise ValueError("allreduce buffers must have equal length")
        self.count(length if words is None else words)
        work = list(buffers)
        for rank in range(0, p - 1, 2):
            work[rank] = np.add(work[rank], work[rank + 1], dtype=np.float64)
        step = 2
        while step < p:
            for rank in range(0, p - step, 2 * step):
                work[rank] += work[rank + step]
            step *= 2
        return work[0]

    def allgather(self, buffers: list[np.ndarray]) -> np.ndarray:
        """Rank-order concatenation replicated on all ranks; words = total length."""
        p = self.p
        if len(buffers) != p:
            raise ValueError(f"expected {p} rank buffers, got {len(buffers)}")
        self.count(sum(len(buf) for buf in buffers))
        return np.concatenate(buffers)

    def combine(self, buffers: list[np.ndarray], words: int | None = None) -> np.ndarray:
        """The solvers' reduction: ``allreduce_sum``, which ``words`` is passed on to.

        With one rank nothing moves: the reduction is only counted (the
        buffer's length in words, or ``words``, and no messages) and the
        rank's own buffer is returned, without a call to ``allreduce_sum``.
        """
        if self.layout.p == 1:
            self.count(len(buffers[0]) if words is None else words)
            return buffers[0]
        return self.allreduce_sum(buffers, words)

    @cached_property
    def column_slices(self) -> tuple[LabeledDataset, ...]:
        """Per rank of a block-column layout, the dataset over the rank's columns.

        Built once per cluster.  With p = 1 the slice is the dataset itself;
        otherwise each is a ``CsrMatrix.column_window``, which shares the
        full matrix's dense cache.
        """
        if self.layout.kind != BLOCK_COLUMN:
            raise ValueError("column slices need a block-column layout")
        if self.p == 1:
            return (self.dataset,)
        A, labels = self.dataset.a_tilde, self.dataset.labels
        return tuple(LabeledDataset.build(A.column_window(start, stop), labels) for start, stop in self.layout.boundaries)


def partition(dataset: LabeledDataset, kind: str, p: int) -> VirtualCluster:
    """Distribute the dataset over p ranks in 1D-block column or row layout."""
    layout = LayoutDescriptor.build(kind, p, dataset.num_points, dataset.num_features)
    return VirtualCluster(dataset, layout)
