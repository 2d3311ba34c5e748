"""Logistic loss, its score nonlinearity, and accuracy.

The score nonlinearity used throughout is ``sig(t) = 1 / (1 + exp(t))``
(note the plus sign: this equals the standard logistic applied to ``-t``).
With the label-scaled matrix, the empirical risk is
``mean(softplus(-a_tilde_i . x))`` and its gradient is
``-(1/m) * a_tilde^T sig(a_tilde x)``.

Both ``sig`` and ``softplus`` branch so no intermediate exp overflows:
wide datasets can push scores past +-700 where a naive form returns inf.
"""

from __future__ import annotations

import numpy as np

from .sparse import LabeledDataset

__all__ = ["sig", "loss", "accuracy"]

# exp(-36) < 2^-52: beyond this softplus(t) is t (or exp(t)) to full precision.
_SOFTPLUS_CUT = 36.0


def sig(z: np.ndarray) -> np.ndarray:
    """Elementwise ``1 / (1 + exp(z))``, overflow-free for any finite input."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    neg = z < 0.0
    out[neg] = 1.0 / (1.0 + np.exp(z[neg]))
    e = np.exp(-z[~neg])
    out[~neg] = e / (1.0 + e)
    return out


def _softplus(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    hi = t > _SOFTPLUS_CUT
    lo = t < -_SOFTPLUS_CUT
    mid = ~(hi | lo)
    out[hi] = t[hi]
    out[lo] = np.exp(t[lo])
    out[mid] = np.log1p(np.exp(t[mid]))
    return out


def _scores(dataset: LabeledDataset, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dataset.num_features,):
        raise ValueError(f"x must have length {dataset.num_features}")
    return dataset.a_tilde.scipy_csr.dot(x)


def loss(dataset: LabeledDataset, x: np.ndarray, scores: np.ndarray | None = None) -> float:
    """Mean logistic loss ``(1/m) sum softplus(-a_tilde_i . x)``.

    ``scores`` is ``a_tilde x`` when the caller has it (``x`` is then not
    read), so a caller that also takes ``accuracy`` forms the product once.
    """
    st = _scores(dataset, x) if scores is None else scores
    return float(np.mean(_softplus(-st)))


def accuracy(dataset: LabeledDataset, x: np.ndarray, scores: np.ndarray | None = None) -> float:
    """Fraction of points whose raw score sign matches the label.

    A raw score of exactly 0 is classified +1.  Since y in {-1,+1}, the
    raw score times the label equals the scaled score, so the check runs
    directly on ``a_tilde x``, or on ``scores`` as ``loss`` takes them.
    """
    st = _scores(dataset, x) if scores is None else scores
    correct = (st > 0.0) | ((st == 0.0) & (dataset.labels > 0.0))
    return float(correct.mean())
