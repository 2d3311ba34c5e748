"""Closed-form cost laws and an alpha-beta-gamma modeled-time evaluator.

The formulas below pin the explicit per-round constants the simulator
reproduces, under the shared flop convention (one flop per sparse
multiply-add and per dense axpy element; nonlinearity applications
tallied separately and weighted by ``MachineModel.omega`` only in
``modeled_time``).  With L = ceil(log2 p), R = ceil(H/s) rounds and
per-batch nonzeros f*b*n:

  sgd, either layout, per iteration:
      flops 2 f b n + n, 1 collective, L messages,
      words b (column) or n (row)
  s-step, column, per round:
      flops 2 s f b n + (s(s-1)/2) b^2 f^2 n + (s(s-1)/2) b^2 + s n,
      1 collective, L messages, words s^2 b^2 + s b
  s-step, row, per round:
      flops 2 s f b n + (s(s-1)/2) b^2 f^2 n + (s(s-1)/2) b^2 + n,
      2 collectives, 2 L messages, words (s-1) f b n + s b + n

Measured counters from a run match these exactly when the dataset's
rows carry uniformly many nonzeros (words, messages, collectives,
nonlinearity tallies) and, for the Gram flop term, when every row pair
overlaps in exactly f^2 n indices (e.g. fully dense data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .cluster import CostCounters, tree_message_count

__all__ = ["CostParams", "MachineModel", "theoretical_cost", "modeled_time", "crossover_s"]

DEFAULT_OMEGA = 5.0  # exp, add, divide, plus overhead per nonlinearity evaluation


@dataclass(frozen=True)
class CostParams:
    """Problem/algorithm sizes; ``s`` doubles as the scan ceiling for crossover_s."""

    m: int
    n: int
    p: int
    b: int
    s: int
    H: int
    f: float

    def __post_init__(self):
        for name in ("m", "n", "p", "b", "s", "H"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.b > self.m:
            raise ValueError(f"batch size {self.b} exceeds m={self.m}")
        if not 0.0 < self.f <= 1.0:
            raise ValueError("f must be in (0, 1]")


@dataclass(frozen=True)
class MachineModel:
    """alpha: seconds/message, beta: seconds/word, gamma: seconds/flop,
    omega: flops per nonlinearity evaluation."""

    alpha: float
    beta: float
    gamma: float
    omega: float = DEFAULT_OMEGA

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


# How far, in units in the last place, a counter's float may lie from its
# exact value.  f carries one rounding (a typed decimal, or nnz / (m n)),
# which f*f doubles, and each counter takes at most 7 more roundings of
# products and sums of non-negative terms, so its relative error is below
# 9 * 2**-53 and under 9 ulps; 16 leaves a margin.
_ROUNDING_ULPS = 16


def _intish(value: float):
    """``value`` as an int when it lies within rounding error of one, so a
    counter that is integral in exact arithmetic is an int."""
    nearest = round(value)
    return int(nearest) if abs(value - nearest) <= _ROUNDING_ULPS * math.ulp(value) else value


def theoretical_cost(params: CostParams, algorithm: str, layout: str) -> CostCounters:
    """Leading-term counter totals for H logical iterations of the algorithm."""
    m, n, p, b, s, H, f = params.m, params.n, params.p, params.b, params.s, params.H, params.f
    if layout not in ("block_column", "block_row"):
        raise ValueError(f"unknown layout {layout!r}")
    L = tree_message_count(p)
    fbn = f * b * n
    if algorithm == "sgd":
        return CostCounters(
            flops=_intish(H * (2.0 * fbn + n)),
            words_moved=_intish(H * (b if layout == "block_column" else n)),
            messages=H * L,
            collectives=H,
            sig_evals=H * b,
        )
    if algorithm != "casgd":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rounds = -(-H // s)
    pairs = s * (s - 1) // 2
    flops = 2.0 * s * fbn + pairs * b * b * (f * f * n) + pairs * b * b
    if layout == "block_column":
        flops += s * n
        return CostCounters(
            flops=_intish(rounds * flops),
            words_moved=rounds * (s * s * b * b + s * b),
            messages=rounds * L,
            collectives=rounds,
            sig_evals=rounds * s * b,
        )
    flops += n
    return CostCounters(
        flops=_intish(rounds * flops),
        words_moved=_intish(rounds * ((s - 1) * fbn + s * b + n)),
        messages=2 * rounds * L,
        collectives=2 * rounds,
        sig_evals=rounds * s * b,
    )


def modeled_time(counters: CostCounters, machine: MachineModel) -> float:
    """alpha*messages + beta*words + gamma*(flops + omega*sig_evals), all from ``machine``."""
    return (
        machine.alpha * counters.messages
        + machine.beta * counters.words_moved
        + machine.gamma * (counters.flops + machine.omega * counters.sig_evals)
    )


def crossover_s(params: CostParams, machine: MachineModel) -> int:
    """The s in [1, params.s] minimizing modeled s-step (column) time; ties go small."""
    best_s, best_time = 1, math.inf
    for s in range(1, params.s + 1):
        cost = theoretical_cost(replace(params, s=s), "casgd", "block_column")
        t = modeled_time(cost, machine)
        if t < best_time:
            best_s, best_time = s, t
    return best_s
