import dataclasses
import gzip
import math
import os
import struct

import numpy as np
import pytest

from dynavg import learner


def tiny_data(n=40, p=6, classes=3, seed=0):
    return learner.make_blobs(n, p, classes, seed)


def finite_difference_grad(model, batch, data, step=1e-5):
    base = model.params
    grad = np.zeros_like(base)
    for i in range(len(base)):
        up = base.copy(); up[i] += step
        down = base.copy(); down[i] -= step
        lu, _ = learner.loss_and_grad(
            learner.Model(model.kind, model.p, model.num_classes,
                          model.hidden, up), batch, data)
        ld, _ = learner.loss_and_grad(
            learner.Model(model.kind, model.p, model.num_classes,
                          model.hidden, down), batch, data)
        grad[i] = (lu - ld) / (2 * step)
    return grad


# --- model construction -----------------------------------------------------

def test_logistic_param_count():
    assert learner.param_count("logistic", 784, 10) == 7850


def test_mlp_param_count():
    assert learner.param_count("mlp", 4, 3, hidden=5) == 4 * 5 + 5 + 5 * 3 + 3


def test_init_deterministic():
    a = learner.init_model("logistic", 20, 4, seed=42)
    b = learner.init_model("logistic", 20, 4, seed=42)
    np.testing.assert_array_equal(a.params, b.params)
    c = learner.init_model("logistic", 20, 4, seed=43)
    assert not np.array_equal(a.params, c.params)


def test_glorot_uniform_bound():
    m = learner.init_model("logistic", 30, 7, init_scheme="glorot-uniform",
                           seed=1)
    w = m.params[:30 * 7]
    bound = math.sqrt(6.0 / (30 + 7))
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.5 * bound  # actually fills the range


def test_he_normal_scale():
    m = learner.init_model("mlp", 200, 3, hidden=100, init_scheme="he-normal",
                           seed=2)
    w1 = m.params[:200 * 100]
    assert np.std(w1) == pytest.approx(math.sqrt(2.0 / 200), rel=0.05)


def test_init_invalid():
    with pytest.raises(ValueError):
        learner.init_model("logistic", 0, 3)
    with pytest.raises(ValueError):
        learner.init_model("mlp", 5, 3, hidden=0)
    with pytest.raises(ValueError):
        learner.init_model("perceptron", 5, 3)
    with pytest.raises(ValueError):
        learner.init_model("logistic", 5, 3, init_scheme="zeros")


def test_model_layout_mismatch_rejected():
    with pytest.raises(ValueError):
        learner.Model("logistic", 4, 3, 0, np.zeros(10))


# --- loss and gradients -----------------------------------------------------

def test_uniform_model_loss_is_log_c():
    data = tiny_data(classes=10, p=5, n=30)
    model = learner.Model("logistic", 5, 10, 0, np.zeros(5 * 10 + 10))
    loss, _ = learner.loss_and_grad(model, np.arange(30), data)
    assert loss == pytest.approx(math.log(10.0), abs=1e-6)


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 6)])
def test_gradient_matches_finite_differences(kind, hidden):
    data = tiny_data(n=10, p=4, classes=3, seed=3)
    rng = np.random.default_rng(8)
    d = learner.param_count(kind, 4, 3, hidden)
    for trial in range(3):
        params = rng.standard_normal(d) * 0.5
        model = learner.Model(kind, 4, 3, hidden, params)
        batch = np.arange(10)
        _, grad = learner.loss_and_grad(model, batch, data)
        fd = finite_difference_grad(model, batch, data)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad - fd) / scale) < 1e-4


def test_duplicated_batch_invariance():
    data = tiny_data(n=20, p=5, classes=3, seed=4)
    model = learner.init_model("logistic", 5, 3, seed=5)
    batch = np.array([3, 7, 11])
    doubled = np.array([3, 7, 11, 3, 7, 11])
    l1, g1 = learner.loss_and_grad(model, batch, data)
    l2, g2 = learner.loss_and_grad(model, doubled, data)
    assert l1 == pytest.approx(l2, rel=1e-12)
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_softmax_rows_sum_to_one():
    data = tiny_data(n=25, p=6, classes=4, seed=6)
    for kind, hidden in (("logistic", 0), ("mlp", 7)):
        model = learner.init_model(kind, 6, 4, hidden, seed=7)
        probs = learner.forward(model, data.features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()


def test_loss_nonnegative():
    data = tiny_data(seed=9)
    model = learner.init_model("mlp", 6, 3, hidden=5, seed=9)
    loss, _ = learner.loss_and_grad(model, np.arange(data.n), data)
    assert loss >= 0.0


def test_small_step_decreases_batch_loss():
    data = tiny_data(n=64, p=8, classes=3, seed=10)
    for kind, hidden in (("logistic", 0), ("mlp", 6)):
        model = learner.init_model(kind, 8, 3, hidden, seed=11)
        opt = learner.make_optimizer("sgd", len(model.params), lr=1e-4)
        batch = np.arange(32)
        before, grad = learner.loss_and_grad(model, batch, data)
        assert np.linalg.norm(grad) > 0
        stepped = dataclasses.replace(
            model, params=learner.apply_gradient(opt, model.params, grad))
        after, _ = learner.loss_and_grad(stepped, batch, data)
        assert after < before


# --- optimizers -------------------------------------------------------------

def test_sgd_zero_lr_keeps_parameters():
    data = tiny_data(seed=12)
    model = learner.init_model("logistic", 6, 3, seed=13)
    opt = learner.make_optimizer("sgd", len(model.params), lr=0.0)
    _, grad = learner.loss_and_grad(model, np.arange(10), data)
    out = learner.apply_gradient(opt, model.params, grad)
    np.testing.assert_array_equal(out, model.params)


def test_sgd_update_is_definition():
    data = tiny_data(seed=14)
    model = learner.init_model("logistic", 6, 3, seed=15)
    _, grad = learner.loss_and_grad(model, np.arange(8), data)
    opt = learner.make_optimizer("sgd", len(model.params), lr=0.1)
    out = learner.apply_gradient(opt, model.params, grad)
    np.testing.assert_allclose(out, model.params - 0.1 * grad, rtol=0, atol=0)


def test_adam_first_step_closed_form():
    d = 12
    rng = np.random.default_rng(16)
    params = rng.standard_normal(d)
    grad = rng.standard_normal(d)
    opt = learner.make_optimizer("adam", d, lr=0.01)
    new = learner.apply_gradient(opt, params, grad)
    # From zero moments: m_hat = g, v_hat = g^2.
    expected = params - 0.01 * grad / (np.abs(grad) + 1e-8)
    np.testing.assert_allclose(new, expected, rtol=1e-10, atol=1e-12)


def test_adam_two_steps_match_recurrence():
    d = 6
    rng = np.random.default_rng(17)
    params = rng.standard_normal(d)
    grads = [rng.standard_normal(d) for _ in range(2)]
    opt = learner.make_optimizer("adam", d, lr=0.05, beta1=0.9, beta2=0.999,
                                 eps=1e-8)
    got = params
    for g in grads:
        got = learner.apply_gradient(opt, got, g)
    m = np.zeros(d); v = np.zeros(d); expected = params
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        expected = expected - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("nesterov", [False, True])
def test_momentum_matches_recurrence(nesterov):
    d = 5
    rng = np.random.default_rng(18)
    params = rng.standard_normal(d)
    grads = [rng.standard_normal(d) for _ in range(3)]
    opt = learner.make_optimizer("sgd-momentum", d, lr=0.1, momentum=0.9,
                                 nesterov=nesterov)
    got = params
    for g in grads:
        got = learner.apply_gradient(opt, got, g)
    vel = np.zeros(d); expected = params
    for g in grads:
        vel = 0.9 * vel + g
        update = g + 0.9 * vel if nesterov else vel
        expected = expected - 0.1 * update
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_adamw_decoupled_decay():
    d = 4
    rng = np.random.default_rng(19)
    params = rng.standard_normal(d)
    grad = rng.standard_normal(d)
    plain = learner.make_optimizer("adam", d, lr=0.01)
    decayed = learner.make_optimizer("adamw", d, lr=0.01, weight_decay=0.1)
    base = learner.apply_gradient(plain, params, grad)
    got = learner.apply_gradient(decayed, params, grad)
    np.testing.assert_allclose(got, base - 0.01 * 0.1 * params, rtol=1e-12)


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        learner.make_optimizer("rmsprop", 5, lr=0.1)


# --- evaluation -------------------------------------------------------------

def test_evaluate_perfect_model():
    # Bayes-optimal linear scores for the blob generator: with class means
    # c * ones(p) and unit covariance, score_c(x) = c * sum(x) - c^2 * p / 2.
    p = 25
    data = learner.make_blobs(300, p, 3, seed=20)
    w = np.zeros((p, 3))
    b = np.zeros(3)
    for c in range(3):
        w[:, c] = float(c)
        b[c] = -c * c * p / 2.0
    model = learner.Model("logistic", p, 3, 0, np.concatenate([w.ravel(), b]))
    _, acc = learner.evaluate(model, data)
    assert acc > 0.95


def test_evaluate_exact_labels():
    features = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    data = learner.Dataset(features, labels, num_classes=2)
    params = np.concatenate([np.array([[5.0, -5.0], [-5.0, 5.0]]).ravel(),
                             np.zeros(2)])
    model = learner.Model("logistic", 2, 2, 0, params)
    loss, acc = learner.evaluate(model, data)
    assert acc == 1.0
    assert loss < 0.01


def test_evaluate_random_binary_near_half():
    rng = np.random.default_rng(21)
    features = rng.standard_normal((10_000, 8))
    labels = np.tile([0, 1], 5_000).astype(np.int64)
    data = learner.Dataset(features, labels, num_classes=2)
    model = learner.init_model("logistic", 8, 2, seed=22)
    _, acc = learner.evaluate(model, data)
    assert abs(acc - 0.5) <= 0.03


def test_evaluate_single_sample():
    data = learner.Dataset(np.array([[0.5, 0.5]]), np.array([1]), num_classes=3)
    model = learner.init_model("logistic", 2, 3, seed=23)
    _, acc = learner.evaluate(model, data)
    assert acc in (0.0, 1.0)


def test_argmax_ties_break_to_lowest_class():
    data = learner.Dataset(np.array([[1.0, 1.0]]), np.array([0]), num_classes=3)
    model = learner.Model("logistic", 2, 3, 0, np.zeros(2 * 3 + 3))
    _, acc = learner.evaluate(model, data)  # uniform probs -> class 0 wins
    assert acc == 1.0


# --- batch sampling ---------------------------------------------------------

def test_sampler_deterministic_and_covering():
    shard = np.arange(100, 120)
    a = learner.ShardSampler(shard, 5, run_seed=1, worker_id=0)
    b = learner.ShardSampler(shard, 5, run_seed=1, worker_id=0)
    first_pass = [a.next_batch() for _ in range(4)]
    np.testing.assert_array_equal(np.concatenate(first_pass),
                                  np.concatenate([b.next_batch() for _ in range(4)]))
    assert sorted(np.concatenate(first_pass)) == sorted(shard)


def test_sampler_reshuffles_between_passes():
    shard = np.arange(60)
    s = learner.ShardSampler(shard, 10, run_seed=2, worker_id=1)
    pass1 = np.concatenate([s.next_batch() for _ in range(6)])
    pass2 = np.concatenate([s.next_batch() for _ in range(6)])
    assert sorted(pass1) == sorted(pass2)
    assert not np.array_equal(pass1, pass2)


def test_sampler_drops_trailing_partial_batch():
    s = learner.ShardSampler(np.arange(13), 5, run_seed=3, worker_id=0)
    assert s.batches_per_pass == 2
    batches = [s.next_batch() for _ in range(4)]
    assert all(len(b) == 5 for b in batches)


def test_sampler_rejects_oversized_batch():
    with pytest.raises(ValueError):
        learner.ShardSampler(np.arange(4), 5, run_seed=0, worker_id=0)


def test_workers_draw_different_batches():
    shard = np.arange(50)
    a = learner.ShardSampler(shard, 10, run_seed=7, worker_id=0)
    b = learner.ShardSampler(shard, 10, run_seed=7, worker_id=1)
    assert not np.array_equal(a.next_batch(), b.next_batch())


# --- data ingestion ---------------------------------------------------------

def write_idx_images(path, images, gz=False):
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", learner.IDX_IMAGES_MAGIC, n, rows, cols)
    blob += images.astype(np.uint8).tobytes()
    opener = gzip.open if gz else open
    with opener(path, "wb") as f:
        f.write(blob)


def write_idx_labels(path, labels, gz=False, magic=None):
    blob = struct.pack(">II", magic or learner.IDX_LABELS_MAGIC, len(labels))
    blob += labels.astype(np.uint8).tobytes()
    opener = gzip.open if gz else open
    with opener(path, "wb") as f:
        f.write(blob)


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(30)
    images = rng.integers(0, 256, size=(12, 4, 5), dtype=np.uint8)
    labels = rng.integers(0, 3, size=12, dtype=np.uint8)
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "labels.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    data = learner.load_idx(ip, lp)
    assert data.n == 12 and data.p == 20
    assert data.num_classes == int(labels.max()) + 1
    assert data.features.min() >= 0.0 and data.features.max() <= 1.0
    np.testing.assert_allclose(data.features[0],
                               images[0].reshape(-1) / 255.0)


def test_load_idx_gzip(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 1], dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx.gz"), str(tmp_path / "l.idx.gz")
    write_idx_images(ip, images, gz=True)
    write_idx_labels(lp, labels, gz=True)
    data = learner.load_idx(ip, lp)
    assert data.n == 3 and data.p == 4


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels, magic=0xDEADBEEF)
    with pytest.raises(learner.IdxFormatError):
        learner.load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "i.idx"
    ip.write_bytes(struct.pack(">IIII", learner.IDX_IMAGES_MAGIC, 10, 28, 28))
    lp = str(tmp_path / "l.idx")
    write_idx_labels(lp, np.zeros(10, dtype=np.uint8))
    with pytest.raises(learner.IdxFormatError):
        learner.load_idx(str(ip), lp)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    labels = np.zeros(5, dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    with pytest.raises(ValueError, match="count"):
        learner.load_idx(ip, lp)


MNIST_DIR = os.environ.get("MNIST_DIR", "")


@pytest.mark.skipif(
    not (MNIST_DIR and os.path.exists(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte.gz"))),
    reason="MNIST files not available (set MNIST_DIR)")
def test_load_mnist_train():
    data = learner.load_idx(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte.gz"),
        os.path.join(MNIST_DIR, "train-labels-idx1-ubyte.gz"))
    assert data.n == 60_000 and data.p == 784 and data.num_classes == 10


def test_make_blobs_deterministic():
    a = learner.make_blobs(300, 2, 3, seed=7)
    b = learner.make_blobs(300, 2, 3, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = learner.make_blobs(300, 2, 3, seed=8)
    assert not np.array_equal(a.features, c.features)


def test_make_blobs_unit_spaced_means():
    data = learner.make_blobs(6000, 10, 3, seed=9)
    for c in range(3):
        cluster = data.features[data.labels == c]
        np.testing.assert_allclose(cluster.mean(axis=0), c, atol=0.15)
    counts = np.bincount(data.labels)
    assert counts.max() - counts.min() <= 1


def test_make_blobs_invalid():
    with pytest.raises(ValueError):
        learner.make_blobs(0, 2, 3, seed=0)
    with pytest.raises(ValueError):
        learner.make_blobs(10, 2, 1, seed=0)
