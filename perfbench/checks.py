"""Output checks of a benchmark pass; each one counts towards ``error_rate``.

Checks fail closed: a NaN or infinite error, a non-finite solution or a
missing epoch is a failure, never a pass with error 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from casgd import CostCounters, relative_solution_error

TOLERANCE = 1e-10

# Counters whose closed forms are exact on uniform-nnz rows.  The Gram flop
# term also assumes uniform pairwise row overlap, so flops are not checked.
LAW_COUNTERS = ("words", "messages", "collectives", "sig_evals")


@dataclass
class CheckLog:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def compare_epochs(log: CheckLog, label: str, reference: list, candidate: list, epochs: int) -> None:
    """SGD vs CA-SGD solutions at epochs 0..epochs: all present, all within TOLERANCE."""
    log.check(
        len(reference) == len(candidate) == epochs + 1,
        f"{label}: compared {min(len(reference), len(candidate))} epochs, expected {epochs + 1}",
    )
    for epoch, (x_ref, x) in enumerate(zip(reference, candidate)):
        err = relative_solution_error(x_ref, x)
        finite = bool(np.isfinite(x_ref).all() and np.isfinite(x).all()) and math.isfinite(err)
        log.check(finite and err <= TOLERANCE, f"{label} epoch {epoch}: relative error {err!r}")


def bitwise_equal(log: CheckLog, label: str, x_ref: np.ndarray | None, x: np.ndarray) -> None:
    """``x`` equals ``x_ref`` bit for bit; a missing reference fails."""
    same = x_ref is not None and x_ref.dtype == x.dtype and x_ref.tobytes() == x.tobytes()
    log.check(same, f"{label}: solution differs bitwise from SGD's")


def counter_laws(log: CheckLog, label: str, measured: CostCounters, expected: CostCounters) -> float:
    """Check the exact counter laws; returns the largest absolute residual."""
    got, want = measured.as_dict(), expected.as_dict()
    worst = 0.0
    for name in LAW_COUNTERS:
        residual = abs(got[name] - want[name])
        log.check(residual == 0, f"{label}: {name} measured {got[name]}, closed form {want[name]}")
        worst = max(worst, residual)
    return worst
