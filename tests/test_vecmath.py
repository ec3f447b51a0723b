import functools
import operator
import threading
import tracemalloc

import numpy as np
import pytest

from dynavg import vecmath


def test_dot_orthogonal():
    assert vecmath.dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_dot_hand_value():
    assert vecmath.dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_dot_matches_norm_sq_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(257)
        assert vecmath.dot(v, v) == vecmath.norm_sq(v)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        vecmath.dot(np.zeros(3), np.zeros(4))


def test_norm_sq_zero_vector():
    assert vecmath.norm_sq(np.zeros(3)) == 0.0


def test_norm_sq_three_four_five():
    assert vecmath.norm_sq(np.array([3.0, 4.0])) == 25.0


def test_norm_sq_against_naive_loop():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(1000)
    naive = 0.0
    for x in v:
        naive += x * x
    assert vecmath.norm_sq(v) == pytest.approx(naive, rel=1e-12)


def test_average_trivial():
    out = vecmath.average([np.array([1.0, 1.0]), np.array([3.0, 3.0])])
    np.testing.assert_array_equal(out, [2.0, 2.0])


def test_average_single_vector_identity():
    v = np.array([2.0, -1.0, 0.5])
    np.testing.assert_array_equal(vecmath.average([v]), v)


def test_average_three_vector_oracle():
    rng = np.random.default_rng(13)
    a, b, c = (rng.standard_normal(50) for _ in range(3))
    expected = (a + b + c) / 3.0
    np.testing.assert_allclose(vecmath.average([a, b, c]), expected, rtol=1e-12)


def test_average_errors():
    with pytest.raises(ValueError):
        vecmath.average([])
    with pytest.raises(ValueError):
        vecmath.average([np.zeros(2), np.zeros(3)])
    for empty in ([], np.zeros(0)):
        with pytest.raises(ValueError):
            vecmath.ordered_mean(empty)


def test_average_does_not_mutate_inputs():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    vecmath.average([a, b])
    np.testing.assert_array_equal(a, [1.0, 2.0])


def test_dot_symmetric_and_bilinear():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        c = rng.standard_normal(40)
        alpha, beta = rng.standard_normal(2)
        assert vecmath.dot(a, b) == pytest.approx(vecmath.dot(b, a), rel=1e-10)
        left = vecmath.dot(alpha * a + beta * b, c)
        right = alpha * vecmath.dot(a, c) + beta * vecmath.dot(b, c)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


def test_average_offset_invariance():
    rng = np.random.default_rng(5)
    vs = [rng.standard_normal(30) for _ in range(4)]
    offset = rng.standard_normal(30)
    base = vecmath.average(vs)
    shifted = vecmath.average([v + offset for v in vs]) - offset
    np.testing.assert_allclose(shifted, base, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("k,d", [(3, 50), (9, 50), (9, 1), (9, None),
                                 (33, 2), (5, 100_000)])
def test_average_matrix_matches_ascending_loop(k, d):
    # Every entry adds the K slices strictly in ascending order, like the
    # loop; np.sum would pair up a single column's 9 entries.  d=None sums
    # K numbers.
    m = np.random.default_rng(k + (d or 0)).standard_normal(
        (k,) if d is None else (k, d))
    acc = m[0].copy()
    for row in m[1:]:
        acc += row
    assert np.array_equal(vecmath.ordered_sum(m), acc)
    if d is not None:
        # Summed into its own first row, the matrix needs no new array.
        scratch = m.copy()
        tracemalloc.start()
        try:
            got = vecmath.ordered_sum(scratch, out=scratch[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.base is scratch and np.array_equal(got, acc)
        if d >= 100_000:
            assert peak < 0.01 * 8 * d
        assert np.array_equal(vecmath.average(m), acc / k)
        assert np.array_equal(vecmath.average(list(m)), acc / k)
    # K numbers add left to right as Python floats, from an array or a list.
    column = m.reshape(k, -1)[:, 0]
    left_to_right = functools.reduce(operator.add, column.tolist()) / k
    assert vecmath.ordered_mean(column) == left_to_right
    assert vecmath.ordered_mean(column.tolist()) == left_to_right


def test_dot_and_norm_sq_rows_match_np_dot():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((9, 101))
    v = rng.standard_normal(101)
    assert np.array_equal(vecmath.dot(m, v), [np.dot(row, v) for row in m])
    assert np.array_equal(vecmath.norm_sq(m), [np.dot(row, row) for row in m])
    assert vecmath.dot(m[0], v) == float(np.dot(m[0], v))


def test_average_makes_one_d_sized_array():
    # The ordered sum is divided in place: the mean is the only (d,) array.
    k, d = 5, 100_000
    m = np.random.default_rng(8).standard_normal((k, d))
    tracemalloc.start()
    try:
        mean = vecmath.average(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * d
    assert mean.tobytes() == (vecmath.ordered_sum(m) / k).tobytes()


@pytest.mark.parametrize("k,d", [(3, 1), (9, 1), (5, 100_000)])
def test_average_into_out_matches_and_makes_no_d_sized_array(k, d):
    # The mean goes into the caller's (d,) array with the same ascending
    # row order: bit-equal to a new mean, and no (d,) array is made.
    m = np.random.default_rng(9).standard_normal((k, d))
    out = np.full(d, np.nan)
    tracemalloc.start()
    try:
        got = vecmath.average(m, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out
    assert out.tobytes() == vecmath.average(m).tobytes()
    if d > 1:
        assert peak < 0.1 * 8 * d


# --- lanes --------------------------------------------------------------------

@pytest.fixture
def lanes(monkeypatch):
    """Every call with two or more blocks splits, on any CPU count."""
    monkeypatch.setattr(vecmath, "LANE_MIN_ENTRIES", 1)
    monkeypatch.setattr(vecmath, "_lane", vecmath._Lane())


def record(calls):
    return lambda lo, hi: calls.append((lo, hi, threading.get_ident()))


def test_split_gives_the_first_half_here_and_the_rest_to_the_helper(lanes):
    calls = []
    vecmath.split(record(calls), 5, 5)
    here = threading.get_ident()
    assert sorted((lo, hi, ident == here) for lo, hi, ident in calls) == [
        (0, 3, True), (3, 5, False)]


def test_split_runs_small_calls_once_here():
    calls = []
    vecmath.split(record(calls), 5, vecmath.LANE_MIN_ENTRIES - 1)
    vecmath.split(record(calls), 1, vecmath.LANE_MIN_ENTRIES)
    here = threading.get_ident()
    assert calls == [(0, 5, here), (0, 1, here)]


def test_split_stays_in_one_lane_on_one_cpu(monkeypatch):
    monkeypatch.setattr(vecmath, "LANE_MIN_ENTRIES", 1)
    monkeypatch.setattr(vecmath, "_lane", None)
    monkeypatch.setattr(vecmath.os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    calls = []
    vecmath.split(record(calls), 4, 4)
    assert calls == [(0, 4, threading.get_ident())]
    assert vecmath._lane is False


def test_split_reraises_the_helpers_error_once_both_blocks_ended(lanes):
    ended = []

    def fn(lo, hi):
        if lo:
            raise ZeroDivisionError("helper block")
        ended.append((lo, hi))

    with pytest.raises(ZeroDivisionError, match="helper block"):
        vecmath.split(fn, 4, 4)
    assert ended == [(0, 2)]
    calls = []
    vecmath.split(record(calls), 2, 2)  # the helper is free again
    assert sorted(c[:2] for c in calls) == [(0, 1), (1, 2)]


def test_split_inside_a_block_runs_in_one_call(lanes):
    inner = []
    vecmath.split(lambda lo, hi: vecmath.split(
        lambda a, b: inner.append((lo, a, b)), 4, 4), 2, 2)
    assert sorted(inner) == [(0, 0, 4), (1, 0, 4)]


def sums_and_means(m: np.ndarray) -> list[bytes]:
    """ordered_sum into a new array and, but for K numbers, into its own
    first row; average too for a matrix."""
    scratch = m.copy()
    got = [vecmath.ordered_sum(m)]
    if m.ndim > 1:
        got.append(vecmath.ordered_sum(scratch, out=scratch[0]))
    if m.ndim == 2:
        got.append(vecmath.average(m))
    return [x.tobytes() for x in got]


@pytest.mark.parametrize("shape", [(5, 7), (3, 2, 9), (1, 4), (4,)])
def test_sums_and_means_in_lanes_match_one_lane(monkeypatch, shape):
    m = np.random.default_rng(23).standard_normal(shape)
    serial = sums_and_means(m)
    monkeypatch.setattr(vecmath, "LANE_MIN_ENTRIES", 1)
    monkeypatch.setattr(vecmath, "_lane", vecmath._Lane())
    assert sums_and_means(m) == serial


def test_by_columns_runs_fn_on_matching_column_blocks(lanes):
    m = np.arange(12.0).reshape(3, 4)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    out = np.empty_like(m)
    blocks = []

    def subtract(a, b, c):
        blocks.append((a.shape, b.shape, c.shape))
        np.subtract(a, b, out=c)

    vecmath.by_columns(subtract, m, v, out)
    assert sorted(blocks) == [((3, 2), (2,), (3, 2))] * 2
    assert np.array_equal(out, m - v)
