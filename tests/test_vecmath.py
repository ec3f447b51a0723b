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
