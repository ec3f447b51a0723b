import numpy as np
import pytest

from dynavg import sketch


def hand_transform(d, m, buckets, signs):
    """Single-row transform with pinned hashes, for hand-evaluated cases."""
    b = np.array([buckets], dtype=np.int64)
    s = np.array([signs], dtype=np.float64)
    return sketch.SketchTransform(d=d, l=1, m=m, seed=-1, buckets=b, signs=s)


def test_make_transform_deterministic():
    a = sketch.make_transform(10, 5, 250, seed=42)
    b = sketch.make_transform(10, 5, 250, seed=42)
    np.testing.assert_array_equal(a.buckets, b.buckets)
    np.testing.assert_array_equal(a.signs, b.signs)
    v = np.random.default_rng(0).standard_normal(10)
    np.testing.assert_array_equal(sketch.apply(a, v).rows, sketch.apply(b, v).rows)


def test_different_seeds_differ():
    a = sketch.make_transform(100, 5, 50, seed=1)
    b = sketch.make_transform(100, 5, 50, seed=2)
    assert not np.array_equal(a.buckets, b.buckets)


def test_zero_dimensions_rejected():
    with pytest.raises(ValueError):
        sketch.make_transform(10, 0, 5, seed=1)
    with pytest.raises(ValueError):
        sketch.make_transform(0, 1, 5, seed=1)
    with pytest.raises(ValueError):
        sketch.make_transform(10, 1, 0, seed=1)


def test_apply_zero_vector():
    t = sketch.make_transform(20, 3, 8, seed=3)
    out = sketch.apply(t, np.zeros(20))
    assert out.rows.shape == (3, 8)
    np.testing.assert_array_equal(out.rows, 0.0)


def test_apply_homogeneity():
    t = sketch.make_transform(50, 4, 16, seed=9)
    v = np.random.default_rng(4).standard_normal(50)
    lhs = sketch.apply(t, 3.5 * v).rows
    rhs = 3.5 * sketch.apply(t, v).rows
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_apply_dimension_mismatch():
    t = sketch.make_transform(10, 2, 4, seed=0)
    with pytest.raises(ValueError):
        sketch.apply(t, np.zeros(11))


def test_apply_hand_pinned_hashes():
    # h = (0,1,0,1), s = (+,-,+,-), v = [1,2,3,4] -> row [1+3, -2-4]
    t = hand_transform(4, 2, buckets=[0, 1, 0, 1], signs=[1.0, -1.0, 1.0, -1.0])
    out = sketch.apply(t, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(out.rows, [[4.0, -6.0]])


def test_sketch_add_zero_identity():
    t = sketch.make_transform(30, 3, 10, seed=5)
    a = sketch.apply(t, np.random.default_rng(1).standard_normal(30))
    out = sketch.sketch_add(a, sketch.apply(t, np.zeros(t.d)))
    np.testing.assert_array_equal(out.rows, a.rows)


def test_sketch_add_linearity_oracle():
    t = sketch.make_transform(64, 5, 32, seed=11)
    rng = np.random.default_rng(2)
    v1, v2 = rng.standard_normal(64), rng.standard_normal(64)
    combined = sketch.apply(t, v1 + v2)
    summed = sketch.sketch_add(sketch.apply(t, v1), sketch.apply(t, v2))
    np.testing.assert_allclose(combined.rows, summed.rows, rtol=1e-10, atol=1e-10)


def test_sketch_scale_oracle():
    t = sketch.make_transform(64, 5, 32, seed=11)
    v = np.random.default_rng(3).standard_normal(64)
    lhs = sketch.sketch_scale(2.0, sketch.apply(t, v))
    rhs = sketch.apply(t, 2.0 * v)
    np.testing.assert_allclose(lhs.rows, rhs.rows, rtol=1e-10)


def test_sketch_add_shape_mismatch():
    a = sketch.AmsSketch(rows=np.zeros((2, 3)))
    b = sketch.AmsSketch(rows=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        sketch.sketch_add(a, b)


def test_m2_zero_sketch():
    t = sketch.make_transform(10, 5, 8, seed=1)
    assert sketch.m2_estimate(sketch.apply(t, np.zeros(t.d))) == 0.0


def test_m2_single_row_exact():
    s = sketch.AmsSketch(rows=np.array([[3.0, 4.0]]))
    assert sketch.m2_estimate(s) == 25.0


def test_m2_even_rows_mean_of_middle():
    # row norms squared: 1, 4, 9, 16 -> median (4 + 9) / 2
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    assert sketch.m2_estimate(sketch.AmsSketch(rows=rows)) == 6.5


def test_full_linearity_property():
    t = sketch.make_transform(80, 5, 24, seed=17)
    rng = np.random.default_rng(6)
    for _ in range(200):
        a1, a2 = rng.standard_normal(2)
        v1, v2 = rng.standard_normal(80), rng.standard_normal(80)
        lhs = sketch.apply(t, a1 * v1 + a2 * v2).rows
        rhs = a1 * sketch.apply(t, v1).rows + a2 * sketch.apply(t, v2).rows
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_single_row_estimates_unbiased():
    # Mean of single-row estimates over 200 seeded transforms approaches
    # the true squared norm within 2%.
    d, m = 500, 64
    v = np.random.default_rng(12).standard_normal(d)
    truth = float(v @ v)
    estimates = [
        sketch.m2_estimate(sketch.apply(sketch.make_transform(d, 1, m, seed=s), v))
        for s in range(200)
    ]
    assert np.mean(estimates) == pytest.approx(truth, rel=0.02)


def test_relative_error_wiring():
    assert sketch.relative_error(250) == pytest.approx(1.0 / np.sqrt(250))
    assert sketch.relative_error(250) == pytest.approx(0.0632, abs=1e-4)
