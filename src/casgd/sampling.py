"""Deterministic, seedable batch index streams.

Draws come from a counter-based generator: draw number ``i`` of a stream
is ``mix64(seed + (i+1) * GOLDEN)`` where ``mix64`` is the SplitMix64
finalizer.  A batch at cursor ``t`` consumes draw numbers ``t*b .. t*b+b-1``,
so any batch can be materialized from ``(seed, t)`` alone -- the s-step
solver looks ahead without shared mutable state, and sequences are
bit-identical across platforms.

Within a batch, indices are sampled without replacement by a partial
Fisher-Yates walk over a virtual index window: a dict per batch holds only
the displaced entries, or, for batches of a few draws, the swaps are found
by vector compares over a whole block of batches.  Batches at different
cursors are independent; a row may repeat across iterations.

Because draws are counter-based, a stream computes a whole block of
upcoming cursors at once: one vectorized ``uint64`` SplitMix64 pass, then
the walks, kept as an ``int64`` array of at most about ``_BLOCK_DRAWS``
indices (or one peek, if larger).  The block is only a cache; indices
still depend on nothing but ``(seed, cursor)``.  The solvers read a block
of rounds' batches with one ``peek_indices`` call, not one call per round.

``per_rank`` mode stratifies a batch over contiguous rank row ranges:
each rank contributes ``b/p`` local indices, concatenated in rank order,
drawn from draw numbers ``t*b + rank*(b/p) + k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["BatchStream"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# A stream materializes the draws of this many batch indices at once
# (at least one whole peek), so its block stays a bounded array.
_BLOCK_DRAWS = 4096

# Rows of at most this many draws walk their swaps as vector compares over
# all rows (k per step, so count^2 in all); longer rows walk a dict each.
# One block's walk, vector vs dict (us): 4 draws, 256 rows 62 vs 366; 8
# draws, 128 rows 212 vs 335; 10 draws, 102 rows 319 vs 317, 409 rows 381
# vs 1312; 16 draws, 64 rows 790 vs 317, 256 rows 910 vs 1313.
_COLUMN_WALK_MAX_DRAWS = 10


def _draws(seed: int, first: int, count: int) -> np.ndarray:
    """Draw numbers ``first .. first+count-1`` in one vectorized SplitMix64 pass."""
    z = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _sample_windows(draws: np.ndarray, start: int, size: int) -> np.ndarray:
    """Per row of ``draws``, distinct values from [start, start+size) via partial Fisher-Yates.

    Row r, step k swaps virtual slot k with slot ``k + draws[r, k] % (size - k)``
    and emits the value now at slot k.
    """
    count = draws.shape[1]
    slots = draws % (size - np.arange(count, dtype=np.uint64))
    slots += np.arange(count, dtype=np.uint64)
    slots = slots.astype(np.int64)
    if count == 1:
        return slots + start
    walk = _walk_columns if count <= _COLUMN_WALK_MAX_DRAWS else _walk_rows
    return walk(slots) + start


def _walk_rows(slots: np.ndarray) -> np.ndarray:
    """The Fisher-Yates picks of each row, walked row by row; a dict holds the displaced slots."""
    picks = []
    for row in slots.tolist():
        displaced: dict[int, int] = {}
        for k, j in enumerate(row):
            picks.append(displaced.get(j, j))
            displaced[j] = displaced.get(k, k)
    return np.array(picks, dtype=np.int64).reshape(slots.shape)


def _walk_columns(slots: np.ndarray) -> np.ndarray:
    """The picks of ``_walk_rows``, one step at a time over all rows at once.

    Step k moves the value at slot k to the drawn slot j_k, and later steps
    only read slots above k.  So the value leaving slot k at step k is the
    one the latest earlier step i with j_i = k moved there (or k itself),
    and the pick at step k is the one the latest earlier step with
    j_i = j_k moved there (or j_k itself): two vector compares per earlier
    step.
    """
    moved = np.empty_like(slots)
    picks = np.empty_like(slots)
    for k in range(slots.shape[1]):
        drawn = slots[:, k]
        held = np.full(len(slots), k, dtype=np.int64)
        pick = drawn.copy()
        for i in range(k):
            np.copyto(held, moved[:, i], where=slots[:, i] == k)
            np.copyto(pick, moved[:, i], where=slots[:, i] == drawn)
        moved[:, k] = held
        picks[:, k] = pick
    return picks


@dataclass
class BatchStream:
    """Stream of row batches, fully determined by (seed, cursor, m, b, mode)."""

    seed: int
    m: int
    b: int
    mode: str = "global"
    rank_ranges: Sequence[tuple[int, int]] | None = None
    cursor: int = field(default=0)
    _block_start: int = field(default=0, init=False, repr=False, compare=False)
    _block: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=np.int64), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.b < 1 or self.b > self.m:
            raise ValueError(f"batch size {self.b} must be in [1, m={self.m}]")
        if self.mode == "global":
            if self.rank_ranges is not None:
                raise ValueError("rank_ranges only apply to per_rank mode")
        elif self.mode == "per_rank":
            if not self.rank_ranges:
                raise ValueError("per_rank mode requires rank_ranges")
            p = len(self.rank_ranges)
            if self.b % p:
                raise ValueError(f"per_rank mode requires p={p} to divide b={self.b}")
            local = self.b // p
            for start, stop in self.rank_ranges:
                if stop - start < local:
                    raise ValueError(f"rank range [{start},{stop}) holds fewer than {local} rows")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    def _rows(self, cursor: int, count: int) -> np.ndarray:
        """Indices of the batches at cursors ``cursor .. cursor+count-1``, one row each."""
        lo = cursor - self._block_start
        if lo < 0 or lo + count > len(self._block):
            self._block_start, lo = cursor, 0
            self._block = self._compute_block(cursor, max(count, _BLOCK_DRAWS // self.b))
        return self._block[lo : lo + count]

    def _compute_block(self, cursor: int, count: int) -> np.ndarray:
        draws = _draws(self.seed, cursor * self.b, count * self.b).reshape(count, self.b)
        if self.mode == "global":
            return _sample_windows(draws, 0, self.m)
        local = self.b // len(self.rank_ranges)
        return np.hstack(
            [
                _sample_windows(draws[:, rank * local : (rank + 1) * local], start, stop - start)
                for rank, (start, stop) in enumerate(self.rank_ranges)
            ]
        )

    def advance(self, s: int) -> None:
        self.cursor += s

    # Batches come as plain lists of ints, unchecked: Fisher-Yates already
    # guarantees distinct in-range indices.  The solvers call peek_indices
    # once per block of rounds, so its list conversion is paid per block.
    # It stays list-valued: observers that wrap the method, such as the
    # benchmark's tracer, test the result's truth value, which an ndarray
    # does not have.

    def next_indices(self) -> list[int]:
        """The batch at the cursor, advancing it by one."""
        ids = self._rows(self.cursor, 1)[0].tolist()
        self.cursor += 1
        return ids

    def peek_indices(self, s: int) -> list[list[int]]:
        """The next ``s`` batches, without advancing the cursor."""
        return self._rows(self.cursor, s).tolist()
