import dataclasses
import tracemalloc

import numpy as np
import pytest

from dynavg import sketch


def hand_transform(m, buckets, signs):
    """Single-row transform with pinned hashes, for hand-evaluated cases."""
    b = np.array([buckets], dtype=np.int64)
    negative = np.array([signs], dtype=np.float64) < 0
    return sketch.SketchTransform(m=m, bins=b + m * negative)


def python_poly_hash(d, coeffs):
    """The degree-3 polynomial at 0..d-1 by Horner's rule in Python ints."""
    out = []
    for x in range(d):
        acc = 0
        for c in coeffs.tolist():
            acc = (acc * x + c) % sketch.MERSENNE_PRIME
        out.append(acc)
    return np.array(out)


def reference_hashes(d, l, m, seed):
    """Bucket and sign tables drawn from the polynomial family, one
    (l, d) table each."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    coeffs = rng.integers(0, sketch.MERSENNE_PRIME, size=(l, 2, 4),
                          dtype=np.int64)
    buckets = np.stack([python_poly_hash(d, c[0]) % m for c in coeffs])
    signs = np.stack([2.0 * (python_poly_hash(d, c[1]) & 1) - 1.0
                      for c in coeffs])
    return buckets, signs


def test_make_transform_deterministic():
    a = sketch.make_transform(10, 5, 250, seed=42)
    b = sketch.make_transform(10, 5, 250, seed=42)
    np.testing.assert_array_equal(a.bins, b.bins)
    v = np.random.default_rng(0).standard_normal(10)
    np.testing.assert_array_equal(sketch.apply(a, v).rows, sketch.apply(b, v).rows)


def test_signed_bins_fold_the_hash_family():
    # bins = bucket + m * [sign < 0], so buckets, signs and every sync
    # decision stay those of the polynomial family.
    for d, l, m, seed in [(10, 5, 250, 42), (300, 3, 7, 1), (64, 1, 1, 9)]:
        t = sketch.make_transform(d, l, m, seed)
        buckets, signs = reference_hashes(d, l, m, seed)
        np.testing.assert_array_equal(t.bins, buckets + m * (signs < 0))
        assert t.bins.min() >= 0 and t.bins.max() < 2 * m


def test_different_seeds_differ():
    a = sketch.make_transform(100, 5, 50, seed=1)
    b = sketch.make_transform(100, 5, 50, seed=2)
    assert not np.array_equal(a.bins % 50, b.bins % 50)  # buckets
    assert not np.array_equal(a.bins < 50, b.bins < 50)  # signs


@pytest.mark.parametrize("d, l, m, seed", [
    (1, 1, 1, 0), (63, 3, 1, 2), (500, 5, 16, 7), (2000, 4, 250, 13)])
def test_apply_matches_sign_product_reference(d, l, m, seed):
    # Per row, the signed bins equal bincount(h, weights=s * v), within
    # 1e-12 of each bucket's absolute mass (the two sum in another order).
    t = sketch.make_transform(d, l, m, seed)
    h, s = reference_hashes(d, l, m, seed)
    rng = np.random.default_rng(seed)
    for v in (rng.standard_normal(d), rng.standard_normal(d) * 1e6,
              rng.exponential(size=d)):
        rows = sketch.apply(t, v).rows
        assert rows.shape == (l, m)
        for i in range(l):
            reference = np.bincount(h[i], weights=s[i] * v, minlength=m)
            scale = np.bincount(h[i], weights=np.abs(v), minlength=m)
            assert np.all(np.abs(rows[i] - reference) <= 1e-12 * scale)


def test_transform_holds_one_signed_bin_table():
    d, l, m = 100_000, 5, 250
    tracemalloc.start()
    try:
        t = sketch.make_transform(d, l, m, seed=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The uint16 signed bins are the only array the transform holds, and
    # their shape is its only statement of l and d.
    assert [f.name for f in dataclasses.fields(t)] == ["m", "bins"]
    assert t.bins.dtype == np.uint16 and t.bins.shape == (l, d)
    arrays = [a for a in vars(t).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 1
    assert held < 2 * l * d + 64 * 1024


@pytest.mark.parametrize("bins", [
    [[0, 5, 300, 7]],
    [[0, 5, 6, 1]],
    [[0, -1, 2, 3]],
    [0, 1, 2, 3],
    [[0.0, 1.0, 2.0, 3.0]],
    np.empty((1, 0), dtype=np.int64),
], ids=["300-at-m-3", "2m", "negative", "one-dim", "float", "empty"])
def test_transform_rejects_a_table_it_cannot_hold(bins):
    # Narrowed to uint8, 300 would silently become 44, and a table that is
    # not a non-empty (l, d) table would fail only inside `apply`.
    with pytest.raises(ValueError, match="bins"):
        sketch.SketchTransform(m=3, bins=np.array(bins))


@pytest.mark.parametrize("m, dtype", [(1, np.uint8), (128, np.uint8),
                                      (129, np.uint16), (32768, np.uint16),
                                      (32769, np.uint32)])
def test_bins_take_the_smallest_dtype_holding_2m_minus_1(m, dtype):
    t = sketch.make_transform(300, 2, m, seed=4)
    assert t.bins.dtype == dtype
    # Narrowing changes no bin: the sketch equals bincount over int64 bins.
    v = np.random.default_rng(m).standard_normal(300)
    signed = [np.bincount(row, weights=v, minlength=2 * m)
              for row in t.bins.astype(np.int64)]
    np.testing.assert_array_equal(sketch.apply(t, v).rows,
                                  [s[:m] - s[m:] for s in signed])


def test_apply_widens_one_row_at_a_time():
    # np.bincount widens one row's uint16 bins into an intp temporary and
    # frees it before the next row: the call peaks at one (d,) intp row.
    d = 100_000
    t = sketch.make_transform(d, 5, 250, seed=3)
    v = np.random.default_rng(3).standard_normal(d)
    tracemalloc.start()
    try:
        sketch.apply(t, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d + 64 * 1024


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
    with pytest.raises(ValueError):  # one vector only, no stacked rows
        sketch.apply(t, np.zeros((2, 10)))


def test_apply_hand_pinned_hashes():
    # h = (0,1,0,1), s = (+,-,+,-), v = [1,2,3,4] -> row [1+3, -2-4]
    t = hand_transform(2, buckets=[0, 1, 0, 1], signs=[1.0, -1.0, 1.0, -1.0])
    out = sketch.apply(t, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(out.rows, [[4.0, -6.0]])


def test_sketch_add_zero_identity():
    t = sketch.make_transform(30, 3, 10, seed=5)
    a = sketch.apply(t, np.random.default_rng(1).standard_normal(30))
    out = a.rows + sketch.apply(t, np.zeros(30)).rows
    np.testing.assert_array_equal(out, a.rows)


def test_sketch_add_linearity_oracle():
    t = sketch.make_transform(64, 5, 32, seed=11)
    rng = np.random.default_rng(2)
    v1, v2 = rng.standard_normal(64), rng.standard_normal(64)
    combined = sketch.apply(t, v1 + v2)
    summed = sketch.apply(t, v1).rows + sketch.apply(t, v2).rows
    np.testing.assert_allclose(combined.rows, summed, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("l", range(1, 8))
def test_m2_matches_numpy_median(l):
    # Odd and even row counts, ties included: bit-equal to np.median.
    rng = np.random.default_rng(40 + l)
    for _ in range(300):
        rows = rng.standard_normal((l, 3)) * rng.exponential(size=(l, 1))
        if rng.random() < 0.2:
            rows[rng.integers(l)] = rows[0]
        expected = float(np.median(np.einsum("ij,ij->i", rows, rows)))
        assert sketch.m2_estimate(sketch.AmsSketch(rows=rows)) == expected


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_m2_nan_row_gives_nan(l):
    for bad in range(l):
        rows = np.ones((l, 2))
        rows[bad, 1] = np.nan
        assert np.isnan(sketch.m2_estimate(sketch.AmsSketch(rows=rows)))


def test_transform_tables_read_only():
    t = sketch.make_transform(40, 3, 8, seed=6)
    with pytest.raises(ValueError):
        t.bins[0, 0] = 1
    assert t.bins.dtype == np.uint8 and t.bins.max() < 2 * t.m


def test_m2_zero_sketch():
    t = sketch.make_transform(10, 5, 8, seed=1)
    assert sketch.m2_estimate(sketch.apply(t, np.zeros(10))) == 0.0


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
