"""Seeded linear sketching of high-dimensional vectors.

A transform maps R^d into an l x m matrix: each of the l rows scatters the d
coordinates into m buckets with a random sign, using hash functions drawn
from a 4-wise independent family (degree-3 polynomials over the Mersenne
prime 2^31 - 1, sign taken from the low output bit).  The median of the
squared row norms estimates the squared Euclidean norm of the input, and the
whole map is linear, so sketches of different vectors can be averaged before
estimating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vecmath import ParamVector

MERSENNE_PRIME = (1 << 31) - 1
_POLY_DEGREE = 3  # degree-3 polynomial -> 4-wise independence


def _poly_hash(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial over the prime field at every entry of x.

    Intermediate products stay below 2^63 because all operands are reduced
    modulo the prime (< 2^31) before each multiply.
    """
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc = (acc * x + c) % MERSENNE_PRIME
    return acc


@dataclass(frozen=True)
class SketchTransform:
    """Shared projection; fully determined by (d, l, m, seed)."""

    d: int
    l: int
    m: int
    seed: int
    buckets: np.ndarray  # (l, d) int64, values in [0, m)
    signs: np.ndarray    # (l, d) float64, values in {-1, +1}


@dataclass
class AmsSketch:
    """l x m output of a transform; additive in the sketched vector."""

    rows: np.ndarray  # (l, m) float64


def make_transform(d: int, l: int, m: int, seed: int) -> SketchTransform:
    """Draw per-row bucket and sign hashes from the seeded polynomial family."""
    if d < 1 or l < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, l={l}, m={m}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    coeffs = rng.integers(0, MERSENNE_PRIME, size=(l, 2, _POLY_DEGREE + 1),
                          dtype=np.int64)
    idx = np.arange(d, dtype=np.int64)
    buckets = np.empty((l, d), dtype=np.int64)
    signs = np.empty((l, d), dtype=np.float64)
    for i in range(l):
        buckets[i] = _poly_hash(idx, coeffs[i, 0]) % m
        signs[i] = 2.0 * (_poly_hash(idx, coeffs[i, 1]) & 1) - 1.0
    buckets.setflags(write=False)
    signs.setflags(write=False)
    return SketchTransform(d=d, l=l, m=m, seed=seed, buckets=buckets, signs=signs)


def apply(t: SketchTransform, v: ParamVector) -> AmsSketch:
    """Sketch a vector: rows[i][h_i(j)] += s_i(j) * v_j for every j."""
    if v.shape != (t.d,):
        raise ValueError(f"vector length {v.shape} does not match transform d={t.d}")
    rows = np.empty((t.l, t.m), dtype=np.float64)
    for i in range(t.l):
        rows[i] = np.bincount(t.buckets[i], weights=t.signs[i] * v, minlength=t.m)
    return AmsSketch(rows=rows)


def _check_same_shape(a: AmsSketch, b: AmsSketch) -> None:
    if a.rows.shape != b.rows.shape:
        raise ValueError(f"sketch shape mismatch: {a.rows.shape} vs {b.rows.shape}")


def sketch_add(a: AmsSketch, b: AmsSketch) -> AmsSketch:
    _check_same_shape(a, b)
    return AmsSketch(rows=a.rows + b.rows)


def sketch_scale(alpha: float, a: AmsSketch) -> AmsSketch:
    return AmsSketch(rows=alpha * a.rows)


def m2_estimate(s: AmsSketch) -> float:
    """Median over rows of the squared row norm.

    For an even row count this is the mean of the two middle order
    statistics, which is what numpy's median computes.
    """
    row_norms_sq = np.einsum("ij,ij->i", s.rows, s.rows)
    return float(np.median(row_norms_sq))


def relative_error(m: int) -> float:
    """Operational error bound of the estimator, wired as 1/sqrt(m)."""
    return 1.0 / float(np.sqrt(m))
