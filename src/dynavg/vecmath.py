"""Flat dense-vector arithmetic shared by every other module.

A parameter vector is a 1-D float64 numpy array of fixed length d.  The same
representation carries model parameters, drifts, and gradients; K of them
stack as the rows of a (K, d) matrix, and `dot`, `norm_sq` and `average`
take either form with the same per-row rounding.  All reductions run in a
fixed order so that repeated runs with the same seed are bit-identical.
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


def ordered_sum(m: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over the leading axis, adding the K slices in ascending order,
    into `out` when given (it must not overlap `m`).

    np.sum reduces the outer axis of a C-contiguous array slice by slice,
    but when each slice holds one entry the reduced axis becomes the inner
    one, which numpy sums pairwise for K >= 8; an accumulation is
    sequential for every shape.
    """
    m = np.ascontiguousarray(m)
    if m[0].size > 1:
        return m.sum(axis=0, out=out)
    total = np.cumsum(m, axis=0)[-1]
    if out is None:
        return total
    out[...] = total
    return out


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
