"""Flat dense-vector arithmetic shared by every other module.

A parameter vector is a 1-D float64 numpy array of fixed length d.  The same
representation carries model parameters, drifts, and gradients.  All
reductions run in a fixed order so that repeated runs with the same seed are
bit-identical.
"""

from __future__ import annotations

import numpy as np

ParamVector = np.ndarray


def _check_same_length(a: ParamVector, b: ParamVector) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dot(a: ParamVector, b: ParamVector) -> float:
    """Inner product sum(a_i * b_i)."""
    _check_same_length(a, b)
    return float(np.dot(a, b))


def norm_sq(v: ParamVector) -> float:
    """Squared Euclidean norm; exactly dot(v, v)."""
    return float(np.dot(v, v))


def average(vs: list[ParamVector]) -> ParamVector:
    """Elementwise mean, accumulated in ascending list order."""
    if len(vs) == 0:
        raise ValueError("average over an empty list")
    first = vs[0]
    acc = np.array(first, dtype=np.float64, copy=True)
    for v in vs[1:]:
        _check_same_length(first, v)
        acc += v
    acc /= len(vs)
    return acc
