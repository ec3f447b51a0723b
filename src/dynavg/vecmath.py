"""Flat dense-vector arithmetic shared by every other module.

A parameter vector is a 1-D float64 numpy array of fixed length d.  The same
representation carries model parameters, drifts, and gradients; K of them
stack as the rows of a (K, d) matrix, and `dot`, `norm_sq` and `average`
take either form with the same per-row rounding.  Every sum over the K
workers goes through `ordered_sum` or `ordered_mean`, in ascending order,
so that runs with the same seed are bit-identical on any interpreter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

ParamVector = np.ndarray


def dot(a: np.ndarray, b: np.ndarray):
    """Inner product sum(a_i * b_i) along the last axis.

    A float for two vectors; for a (K, d) matrix `a`, a (K,) array holding
    each row's product with `b` (a vector or a matching matrix).  Every
    entry equals np.dot of the two rows bit for bit: the stacked matmul
    runs one dot kernel per row, where np.einsum, (a * b).sum(1) and a @ b
    round differently.
    """
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    out = np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def norm_sq(v: np.ndarray):
    """Squared Euclidean norm along the last axis; exactly dot(v, v)."""
    return dot(v, v)


def ordered_sum(m, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over the leading axis, adding the K slices in ascending order
    (np.sum pairs up one-entry slices for K >= 8), into `out` when given;
    `out` may be `m[0]` (no copy is made) but must not overlap `m[1:]`."""
    if out is None:
        out = np.empty_like(m[0])
    out[...] = m[0]
    for row in m[1:]:
        out += row
    return out


def ordered_mean(xs) -> float:
    """Mean of K numbers (an array or a list), added left to right as
    Python floats; builtin `sum` compensates float sums from Python 3.12."""
    if len(xs) == 0:
        raise ValueError("mean of no numbers")
    total = 0.0
    for x in np.asarray(xs).tolist():
        total += x
    return total / len(xs)


def average(vs, out: Optional[np.ndarray] = None) -> ParamVector:
    """Elementwise mean of K vectors, given as a list or as the rows of a
    (K, d) matrix, accumulated in ascending order and divided in place,
    into `out` (d,) when given."""
    m = np.asarray(vs, dtype=np.float64)
    if m.ndim != 2 or len(m) == 0:
        raise ValueError(f"average needs K >= 1 vectors of one length, "
                         f"got shape {m.shape}")
    mean = ordered_sum(m, out=out)
    mean /= len(m)
    return mean
