"""Seeded linear sketching of high-dimensional vectors.

A transform maps R^d into an l x m matrix: each of the l rows scatters the d
coordinates into m buckets with a random sign, using hash functions drawn
from a 4-wise independent family (degree-3 polynomials over the Mersenne
prime 2^31 - 1, sign taken from the low output bit).  The median of the
squared row norms estimates the squared Euclidean norm of the input, and the
whole map is linear, so sketches of different vectors can be averaged before
estimating.  A run uses that linearity: it sketches the K workers' mean
drift once per step in place of averaging K sketches, while the ledger
still bills every worker's own sketch on the wire.

A transform holds only its narrow (l, d) bin table; `apply` widens one row
at a time inside `np.bincount`, into a (d,) intp temporary that is freed
before the next row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MERSENNE_PRIME = (1 << 31) - 1
_POLY_DEGREE = 3  # degree-3 polynomial -> 4-wise independence


def _poly_hash(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial over the prime field at every entry of x.

    Intermediate products stay below 2^63 because all operands are reduced
    modulo the prime (< 2^31) before each multiply.  Horner's steps run in
    place, so the only array made is the result.
    """
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
        acc %= MERSENNE_PRIME
    return acc


@dataclass(frozen=True)
class SketchTransform:
    """Shared projection; fully determined by (d, l, m, seed).

    Row i keeps each coordinate's bucket and sign in one signed bin,
    `bins[i, j] = h_i(j) + m * [s_i(j) < 0]`, in [0, 2m).  `bins` is
    read-only, in the smallest unsigned dtype that holds 2m - 1, and is the
    only array the transform holds.  A table that is not (l, d) integers in
    [0, 2m) raises ValueError before it is narrowed."""

    d: int
    l: int
    m: int
    seed: int
    bins: np.ndarray  # (l, d) uint8 or wider, values in [0, 2m)

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins)
        if (bins.shape != (self.l, self.d)
                or not np.issubdtype(bins.dtype, np.integer)):
            raise ValueError(f"bins must be an ({self.l}, {self.d}) integer "
                             f"table, not {bins.shape} {bins.dtype}")
        if bins.min() < 0 or bins.max() >= 2 * self.m:
            raise ValueError(f"bins must lie in [0, {2 * self.m}), not "
                             f"[{bins.min()}, {bins.max()}]")
        bins = np.require(bins, np.min_scalar_type(2 * self.m - 1), "C").view()
        bins.setflags(write=False)
        object.__setattr__(self, "bins", bins)


@dataclass
class AmsSketch:
    """l x m output of a transform; additive in the sketched vector."""

    rows: np.ndarray  # (l, m) float64


def _signed_bin_row(idx: np.ndarray, m: int, coeffs: np.ndarray) -> np.ndarray:
    """h(j) + m * [s(j) < 0] at every j in idx, from one row's (bucket, sign)
    coefficients; the sign is -1 where the low bit of the sign hash is 0."""
    row = _poly_hash(idx, coeffs[1])
    row &= 1
    row ^= 1
    row *= m
    bucket = _poly_hash(idx, coeffs[0])
    bucket %= m
    row += bucket
    return row


def make_transform(d: int, l: int, m: int, seed: int) -> SketchTransform:
    """Draw per-row bucket and sign hashes from the seeded polynomial family
    and fold each pair into a signed bin."""
    if d < 1 or l < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, l={l}, m={m}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    coeffs = rng.integers(0, MERSENNE_PRIME, size=(l, 2, _POLY_DEGREE + 1),
                          dtype=np.int64)
    idx = np.arange(d, dtype=np.int64)
    bins = np.empty((l, d), dtype=np.min_scalar_type(2 * m - 1))
    for i in range(l):  # a row's int64 temporaries die before the next's
        bins[i] = _signed_bin_row(idx, m, coeffs[i])
    return SketchTransform(d=d, l=l, m=m, seed=seed, bins=bins)


def apply(t: SketchTransform, v: np.ndarray) -> AmsSketch:
    """Sketch a vector: rows[i][h_i(j)] += s_i(j) * v_j for every j.

    Each row sums v into 2m signed bins; the last m (the negative signs)
    are subtracted from the first m.  `np.bincount` widens the row's bins
    into a (d,) intp temporary of its own, which it frees."""
    if v.shape != (t.d,):
        raise ValueError(f"vector length {v.shape} does not match transform d={t.d}")
    rows = np.empty((t.l, t.m), dtype=np.float64)
    for i in range(t.l):
        signed = np.bincount(t.bins[i], weights=v, minlength=2 * t.m)
        np.subtract(signed[:t.m], signed[t.m:], out=rows[i])
    return AmsSketch(rows=rows)


def m2_estimate(s: AmsSketch) -> float:
    """Median over rows of the squared row norm.

    For an even row count this is `(a + b) / 2` of the two middle order
    statistics, bit-equal to `np.median`; any NaN row norm gives NaN.
    """
    norms = sorted(np.einsum("ij,ij->i", s.rows, s.rows).tolist())
    mid = len(norms) // 2
    median = norms[mid] if len(norms) % 2 else (norms[mid - 1] + norms[mid]) / 2
    return math.nan if any(map(math.isnan, norms)) else median


def relative_error(m: int) -> float:
    """Operational error bound of the estimator, wired as 1/sqrt(m)."""
    return 1.0 / float(np.sqrt(m))
