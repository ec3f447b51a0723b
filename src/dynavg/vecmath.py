"""Flat dense-vector arithmetic shared by every other module.

A parameter vector is a 1-D float64 numpy array of fixed length d.  The same
representation carries model parameters, drifts, and gradients; K of them
stack as the rows of a (K, d) matrix, and `dot`, `norm_sq` and `average`
take either form with the same per-row rounding.  Every sum over the K
workers goes through `ordered_sum` or `ordered_mean`, in ascending order,
so that runs with the same seed are bit-identical on any interpreter.

`split` runs a large call in two lanes, this thread and one helper thread,
each over its own contiguous block of rows or of columns.  No block boundary
ever crosses an axis that a sum runs along, so every output entry is
computed by the same operations in the same order as in one call, and the
bytes do not depend on how many lanes ran.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import Callable, Optional

import numpy as np

ParamVector = np.ndarray

# Below this many float64 entries a call runs in one lane.  Handing a block
# to the helper thread and waiting for it costs about 15 us; on a 2-vCPU
# Xeon with one BLAS thread, a (K, d) subtract, copy, mean or SGD step
# broke even between 2^16 and 2^18 entries and ran 1.4-1.8x faster at 2^18.
LANE_MIN_ENTRIES = 1 << 18


class _Lane:
    """The helper thread: it runs one block for `split` at a time."""

    def __init__(self) -> None:
        self.gate = threading.Lock()  # held by the `split` using the lane
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._error = None
        threading.Thread(target=self._serve, name="dynavg-lane",
                         daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            fn, lo, hi = self._task
            try:
                fn(lo, hi)
            except BaseException as exc:  # re-raised by `join`
                self._error = exc
            self._task = None
            self._done.release()

    def start(self, fn: Callable[[int, int], object], lo: int, hi: int) -> None:
        self._task = (fn, lo, hi)
        self._go.release()

    def join(self) -> None:
        self._done.acquire()
        error, self._error = self._error, None
        if error is not None:
            raise error


# None until a call first needs the helper; False when the process may run
# on one CPU only, so lanes stay off.
_lane = None


def _forget_lane() -> None:
    global _lane
    _lane = None  # a forked child has no helper thread


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def split(fn: Callable[[int, int], object], n: int, entries: int) -> None:
    """Call fn(lo, hi) over contiguous blocks that cover range(n) once.

    A call that touches at least `LANE_MIN_ENTRIES` entries, when the
    process may use two CPUs, runs in two lanes: the helper thread takes
    the block [ceil(n/2), n) while this thread takes [0, ceil(n/2)), and
    the call returns when both are done, re-raising either lane's error.
    Otherwise, and for a call made while the helper is busy (from inside a
    block, say), fn(0, n) runs here.  Blocks must write disjoint outputs.
    """
    global _lane
    if n < 2 or entries < LANE_MIN_ENTRIES:
        fn(0, n)
        return
    if _lane is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        _lane = _Lane() if cpus > 1 else False
    lane = _lane
    if not lane or not lane.gate.acquire(blocking=False):
        fn(0, n)
        return
    try:
        mid = (n + 1) // 2
        lane.start(fn, mid, n)
        try:
            fn(0, mid)
        finally:
            lane.join()
    finally:
        lane.gate.release()


def by_columns(fn: Callable, *arrays: np.ndarray) -> None:
    """fn(*arrays), for an fn that computes each column (last-axis entry)
    alone, such as `np.subtract(m, v, out)` with a (K, d) m and out and a
    (d,) v.  Once the first array, the largest, holds `LANE_MIN_ENTRIES`
    entries, fn runs on matching column blocks in `split`'s lanes; below
    that it runs once on the arrays themselves, making no views."""
    m = arrays[0]
    if m.size < LANE_MIN_ENTRIES:
        fn(*arrays)
    else:
        split(lambda lo, hi: fn(*[a[..., lo:hi] for a in arrays]),
              m.shape[-1], m.size)


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
    return _add_rows(m, out)


def _add_rows(m, out: Optional[np.ndarray],
              divisor: Optional[int] = None) -> np.ndarray:
    """`ordered_sum`, divided by `divisor` when given; by column blocks (of
    the last axis, along which nothing adds) in `split`'s lanes when large."""
    if out is None:
        out = np.empty_like(m[0])
    # K numbers (a 0-d out) add along their one axis: no column to split.
    if out.ndim == 0 or m.size < LANE_MIN_ENTRIES:
        _add_into(divisor, m, out)
    else:
        by_columns(partial(_add_into, divisor), m, out)
    return out


def _add_into(divisor: Optional[int], rows, total: np.ndarray) -> None:
    total[...] = rows[0]
    for row in rows[1:]:
        total += row
    if divisor is not None:
        total /= divisor


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
    return _add_rows(m, out, len(m))
