import dataclasses
import gzip
import itertools
import math
import os
import struct
import tracemalloc

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


# --- reference formulas -----------------------------------------------------
# The per-kind forward and backward passes written out by hand.  The shared
# dense-layer pass in `learner` must reproduce them bit for bit.

def ref_unpack(model):
    p, c, h = model.p, model.num_classes, model.hidden
    if model.kind == "logistic":
        return model.params[:p * c].reshape(p, c), model.params[p * c:]
    off = 0
    w1 = model.params[off:off + p * h].reshape(p, h); off += p * h
    b1 = model.params[off:off + h]; off += h
    w2 = model.params[off:off + h * c].reshape(h, c); off += h * c
    return w1, b1, w2, model.params[off:]


def ref_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def ref_loss_and_grad(model, batch, data):
    x = data.features[batch]
    y = data.labels[batch]
    nb = len(batch)
    if model.kind == "logistic":
        w, b = ref_unpack(model)
        logp = ref_log_softmax(x @ w + b)
        loss = -float(logp[np.arange(nb), y].mean())
        dz = np.exp(logp)
        dz[np.arange(nb), y] -= 1.0
        dz /= nb
        return loss, np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
    w1, b1, w2, b2 = ref_unpack(model)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logp = ref_log_softmax(a1 @ w2 + b2)
    loss = -float(logp[np.arange(nb), y].mean())
    dz2 = np.exp(logp)
    dz2[np.arange(nb), y] -= 1.0
    dz2 /= nb
    dz1 = (dz2 @ w2.T) * (z1 > 0.0)
    return loss, np.concatenate([
        (x.T @ dz1).ravel(), dz1.sum(axis=0),
        (a1.T @ dz2).ravel(), dz2.sum(axis=0)])


def ref_evaluate(model, data):
    if model.kind == "logistic":
        w, b = ref_unpack(model)
        logp = ref_log_softmax(data.features @ w + b)
    else:
        w1, b1, w2, b2 = ref_unpack(model)
        a1 = np.maximum(data.features @ w1 + b1, 0.0)
        logp = ref_log_softmax(a1 @ w2 + b2)
    loss = -float(logp[np.arange(data.n), data.labels].mean())
    return loss, float((logp.argmax(axis=1) == data.labels).mean())


def ref_init_params(kind, p, c, h, scheme, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def matrix(fan_in, fan_out):
        if scheme == "glorot-uniform":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

    if kind == "logistic":
        return np.concatenate([matrix(p, c).ravel(), np.zeros(c)])
    w1 = matrix(p, h)
    w2 = matrix(h, c)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


@pytest.mark.parametrize("kind,p,classes,hidden",
                         [("logistic", 20, 3, 0), ("mlp", 7, 3, 5),
                          ("mlp", 30, 4, 12)])
@pytest.mark.parametrize("scheme", learner.INIT_SCHEMES)
def test_dense_pass_matches_reference(kind, p, classes, hidden, scheme):
    data = tiny_data(n=50, p=p, classes=classes, seed=24)
    rng = np.random.default_rng(25)
    for seed in range(5):
        model = learner.init_model(kind, p, classes, hidden,
                                   init_scheme=scheme, seed=seed)
        assert np.array_equal(
            model.params, ref_init_params(kind, p, classes, hidden, scheme,
                                          seed))
        # Random parameters too, so dead ReLUs and large logits occur.
        for params in (model.params, rng.standard_normal(len(model.params))):
            m = learner.Model(kind, p, classes, hidden, params)
            batch = rng.permutation(data.n)[:16]
            loss, grad = learner.loss_and_grad(m, batch, data)
            ref_loss, ref_grad = ref_loss_and_grad(m, batch, data)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
            assert learner.evaluate(m, data) == ref_evaluate(m, data)
            work = np.full(learner.activation_count(kind, p, classes, hidden,
                                                    data.n), np.nan)
            assert learner.evaluate(m, data, work) == ref_evaluate(m, data)


@pytest.mark.parametrize("kind,p,classes,hidden",
                         [("logistic", 20, 3, 0), ("mlp", 784, 10, 128)])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_stacked_pass_matches_single_models(kind, p, classes, hidden, k):
    # K models as the rows of one matrix, each with its own batch row: one
    # stacked call must give exactly what K single-model calls give.
    data = tiny_data(n=64, p=p, classes=classes, seed=26)
    rng = np.random.default_rng(27)
    d = learner.param_count(kind, p, classes, hidden)
    params = rng.standard_normal((k, d)) * 0.1
    batch = np.stack([rng.permutation(data.n)[:16] for _ in range(k)])
    out = np.full((k, d), np.nan)
    losses, grads = learner.loss_and_grad(
        learner.Model(kind, p, classes, hidden, params), batch, data, out=out)
    assert grads is out and losses.shape == (k,)
    for i in range(k):
        loss, grad = learner.loss_and_grad(
            learner.Model(kind, p, classes, hidden, params[i].copy()),
            batch[i], data)
        assert losses[i] == loss
        assert np.array_equal(grads[i], grad)


@pytest.mark.parametrize("kind,p,classes,hidden",
                         [("logistic", 20, 3, 0), ("mlp", 784, 10, 128)])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_per_run_pass_matches_per_model_reference(kind, p, classes, hidden, k):
    # The run loop's pattern: one (K, d) matrix updated in place, one
    # gradient buffer and one (K, b) batch array refilled every step.  The
    # pass built on the first step must serve all later ones, and every
    # step must equal the hand-written reference applied to each model.
    data = tiny_data(n=64, p=p, classes=classes, seed=28)
    rng = np.random.default_rng(29)
    d = learner.param_count(kind, p, classes, hidden)
    model = learner.Model(kind, p, classes, hidden,
                          rng.standard_normal((k, d)) * 0.1)
    rows = [model.params[i].copy() for i in range(k)]
    spec = learner.OptimizerSpec(kind="sgd", lr=0.05)
    opt, grad = spec.build((k, d)), np.empty((k, d))
    batch = np.empty((k, 16), dtype=np.int64)
    for step in range(50):
        for i in range(k):
            batch[i] = rng.permutation(data.n)[:16]
        losses, _ = learner.loss_and_grad(model, batch, data, out=grad)
        if step == 0:
            first_pass = model._pass
        assert model._pass is first_pass
        for i in range(k):
            ref_loss, ref_grad = ref_loss_and_grad(
                learner.Model(kind, p, classes, hidden, rows[i]), batch[i],
                data)
            assert losses[i] == ref_loss
            assert np.array_equal(grad[i], ref_grad)
            rows[i] = rows[i] - spec.lr * ref_grad
        learner.apply_gradient(opt, model.params, grad)
        assert np.array_equal(model.params, np.stack(rows))


def test_rebinding_params_or_buffer_never_reuses_stale_views():
    data = tiny_data(n=64, p=7, classes=3, seed=30)
    rng = np.random.default_rng(31)
    d = learner.param_count("mlp", 7, 3, 5)
    model = learner.Model("mlp", 7, 3, 5, rng.standard_normal((3, d)))
    batch = rng.integers(0, data.n, size=(3, 16))
    out = np.empty((3, d))

    def fresh(params, batch):
        return learner.loss_and_grad(
            learner.Model("mlp", 7, 3, 5, params.copy()), batch, data)

    learner.loss_and_grad(model, batch, data, out=out)
    # A new params array of the same shape, then the old one dropped.
    for params in (rng.standard_normal((3, d)), model.params.copy() * 2.0):
        model.params = params
        losses, grads = learner.loss_and_grad(model, batch, data, out=out)
        ref_losses, ref_grads = fresh(params, batch)
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(grads, ref_grads) and grads is out
    # A new gradient buffer receives the gradient; the old one is untouched.
    new_out = np.full((3, d), np.nan)
    _, grads = learner.loss_and_grad(model, batch, data, out=new_out)
    assert grads is new_out and np.array_equal(new_out, out)
    out[:] = 0.0
    learner.loss_and_grad(model, batch, data, out=new_out)
    assert not out.any()
    # A batch of another shape, and a single model after a stacked one.
    wide = rng.integers(0, data.n, size=(3, 24))
    _, grads = learner.loss_and_grad(model, wide, data, out=new_out)
    assert np.array_equal(grads, fresh(model.params, wide)[1])
    model.params = model.params[0].copy()
    loss, grad = learner.loss_and_grad(model, batch[0], data)
    ref_loss, ref_grad = ref_loss_and_grad(model, batch[0], data)
    assert loss == ref_loss and np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 6)])
def test_loss_and_grad_overwrites_every_entry_of_its_buffer(kind, hidden):
    # The run lends its spent gradient buffer to the step hook as scratch.
    # That is safe because the next call, through the views it built on
    # the first, rewrites every entry: none of the NaNs may survive.
    data = tiny_data(n=64, p=7, classes=3, seed=32)
    rng = np.random.default_rng(33)
    d = learner.param_count(kind, 7, 3, hidden)
    model = learner.Model(kind, 7, 3, hidden, rng.standard_normal((4, d)))
    batch = rng.integers(0, data.n, size=(4, 16))
    buf = np.full((4, d), np.nan)
    _, expected = learner.loss_and_grad(
        learner.Model(kind, 7, 3, hidden, model.params.copy()), batch, data)
    for _ in range(2):  # the pass built for `buf`, then the same pass kept
        _, grads = learner.loss_and_grad(model, batch, data, out=buf)
        assert grads is buf and model._pass.out is buf
        assert np.array_equal(buf, expected)
        buf.fill(np.nan)


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


@pytest.mark.parametrize("kind,p,classes,hidden,widths_d", [
    ("mlp", 4, 3, 0, 3), ("logistic", 4, 3, 3, 15),
    ("logistic", 0, 3, 0, 3), ("logistic", 4, 1, 0, 5),
], ids=["mlp-hidden-0", "logistic-hidden-3", "p-0", "classes-1"])
def test_invalid_layout_rejected_at_every_entry_point(kind, p, classes,
                                                      hidden, widths_d):
    # widths_d is what the layer widths alone would count, so the Model
    # below fails on its layout, not on its parameter length.
    with pytest.raises(ValueError):
        learner.param_count(kind, p, classes, hidden)
    with pytest.raises(ValueError):
        learner.Model(kind, p, classes, hidden, np.zeros(widths_d))
    with pytest.raises(ValueError):
        learner.init_model(kind, p, classes, hidden)


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


def test_loss_nonnegative():
    data = tiny_data(seed=9)
    model = learner.init_model("mlp", 6, 3, hidden=5, seed=9)
    loss, _ = learner.loss_and_grad(model, np.arange(data.n), data)
    assert loss >= 0.0


def test_small_step_decreases_batch_loss():
    data = tiny_data(n=64, p=8, classes=3, seed=10)
    for kind, hidden in (("logistic", 0), ("mlp", 6)):
        model = learner.init_model(kind, 8, 3, hidden, seed=11)
        opt = learner.OptimizerSpec(kind="sgd", lr=1e-4).build(len(model.params))
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
    opt = learner.OptimizerSpec(kind="sgd", lr=0.0).build(len(model.params))
    _, grad = learner.loss_and_grad(model, np.arange(10), data)
    out = learner.apply_gradient(opt, model.params.copy(), grad)
    np.testing.assert_array_equal(out, model.params)


def test_sgd_update_is_definition():
    data = tiny_data(seed=14)
    model = learner.init_model("logistic", 6, 3, seed=15)
    _, grad = learner.loss_and_grad(model, np.arange(8), data)
    opt = learner.OptimizerSpec(kind="sgd", lr=0.1).build(len(model.params))
    out = learner.apply_gradient(opt, model.params.copy(), grad.copy())
    np.testing.assert_allclose(out, model.params - 0.1 * grad, rtol=0, atol=0)


def test_adam_first_step_closed_form():
    d = 12
    rng = np.random.default_rng(16)
    params = rng.standard_normal(d)
    grad = rng.standard_normal(d)
    opt = learner.OptimizerSpec(kind="adam", lr=0.01).build(d)
    new = learner.apply_gradient(opt, params.copy(), grad.copy())
    # From zero moments: m_hat = g, v_hat = g^2.
    expected = params - 0.01 * grad / (np.abs(grad) + 1e-8)
    np.testing.assert_allclose(new, expected, rtol=1e-10, atol=1e-12)


def test_adam_two_steps_match_recurrence():
    d = 6
    rng = np.random.default_rng(17)
    params = rng.standard_normal(d)
    grads = [rng.standard_normal(d) for _ in range(2)]
    opt = learner.OptimizerSpec(kind="adam", lr=0.05, beta1=0.9, beta2=0.999,
                                eps=1e-8).build(d)
    got = params.copy()
    for g in grads:
        got = learner.apply_gradient(opt, got, g.copy())
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
    opt = learner.OptimizerSpec(kind="sgd-momentum", lr=0.1, momentum=0.9,
                                nesterov=nesterov).build(d)
    got = params.copy()
    for g in grads:
        got = learner.apply_gradient(opt, got, g.copy())
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
    plain = learner.OptimizerSpec(kind="adam", lr=0.01).build(d)
    decayed = learner.OptimizerSpec(kind="adamw", lr=0.01,
                                    weight_decay=0.1).build(d)
    base = learner.apply_gradient(plain, params.copy(), grad.copy())
    got = learner.apply_gradient(decayed, params.copy(), grad.copy())
    np.testing.assert_allclose(got, base - 0.01 * 0.1 * params, rtol=1e-12)


def ref_update(spec, slots, t, params, grad):
    """The optimizer step as a pure expression, the bit-exact reference."""
    if spec.kind == "sgd":
        return params - spec.lr * grad
    if spec.kind == "sgd-momentum":
        vel = slots["velocity"]
        vel *= spec.momentum
        vel += grad
        update = grad + spec.momentum * vel if spec.nesterov else vel
        return params - spec.lr * update
    m, v = slots["m"], slots["v"]
    m *= spec.beta1
    m += (1.0 - spec.beta1) * grad
    v *= spec.beta2
    v += (1.0 - spec.beta2) * grad * grad
    m_hat = m / (1.0 - spec.beta1 ** t)
    v_hat = v / (1.0 - spec.beta2 ** t)
    new = params - spec.lr * m_hat / (np.sqrt(v_hat) + spec.eps)
    if spec.kind == "adamw":
        new = new - spec.lr * spec.weight_decay * params
    return new


@pytest.mark.parametrize("spec", [
    learner.OptimizerSpec(kind="sgd", lr=0.1),
    learner.OptimizerSpec(kind="sgd-momentum", lr=0.1, momentum=0.9),
    learner.OptimizerSpec(kind="sgd-momentum", lr=0.1, nesterov=True),
    learner.OptimizerSpec(kind="adam", lr=0.05),
    learner.OptimizerSpec(kind="adamw", lr=0.05, weight_decay=0.1),
], ids=lambda spec: spec.kind + ("-nesterov" if spec.nesterov else ""))
def test_in_place_matrix_update_matches_reference(spec):
    # One in-place update of a (K, d) matrix equals the reference
    # expression applied to each row with its own slots, bit for bit.
    k, d = 3, 7
    rng = np.random.default_rng(20)
    params = rng.standard_normal((k, d))
    opt = spec.build((k, d))
    rows = [params[i].copy() for i in range(k)]
    ref_slots = [spec.build(d).slots for _ in range(k)]
    got = params.copy()
    for t in range(1, 4):
        grad = rng.standard_normal((k, d))
        assert learner.apply_gradient(opt, got, grad.copy()) is got
        rows = [ref_update(spec, ref_slots[i], t, rows[i], grad[i])
                for i in range(k)]
        assert np.array_equal(got, np.stack(rows))


@pytest.mark.parametrize("spec, temporaries", [
    (learner.OptimizerSpec(kind="sgd", lr=0.1), 0),
    (learner.OptimizerSpec(kind="sgd-momentum", lr=0.1), 0),
    (learner.OptimizerSpec(kind="sgd-momentum", lr=0.1, nesterov=True), 1),
    (learner.OptimizerSpec(kind="adam", lr=0.05), 1),
    (learner.OptimizerSpec(kind="adamw", lr=0.05, weight_decay=0.1), 1),
], ids=["sgd", "sgd-momentum", "sgd-momentum-nesterov", "adam", "adamw"])
def test_update_allocates_at_most_one_params_sized_temporary(spec,
                                                             temporaries):
    k, d = 5, 101_770
    rng = np.random.default_rng(21)
    params = rng.standard_normal((k, d))
    opt = spec.build((k, d))
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            grad = rng.standard_normal((k, d))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            learner.apply_gradient(opt, params, grad)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) < (temporaries + 0.1) * params.nbytes


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        learner.OptimizerSpec(kind="rmsprop", lr=0.1)


@pytest.mark.parametrize("kind", sorted(learner.OPTIMIZER_KINDS))
def test_optimizer_rejects_every_field_its_kind_does_not_read(kind):
    # One value off each field's default.
    changed = {"momentum": 0.5, "nesterov": True, "beta1": 0.5, "beta2": 0.5,
               "weight_decay": 0.1, "eps": 1e-7}
    for name, value in changed.items():
        if name in learner.OPTIMIZER_KINDS[kind]:
            learner.OptimizerSpec(kind=kind, lr=0.1, **{name: value})
        else:
            with pytest.raises(ValueError, match=f"does not read {name}"):
                learner.OptimizerSpec(kind=kind, lr=0.1, **{name: value})


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


def test_evaluate_into_work_makes_no_activation_sized_array():
    # Each layer's output over the test set goes into the caller's work:
    # the call allocates less than one (n, hidden) float64 array.
    n, p, classes, hidden = 2000, 40, 10, 128
    data = learner.make_blobs(n, p, classes, seed=26)
    model = learner.init_model("mlp", p, classes, hidden, seed=27)
    size = learner.activation_count("mlp", p, classes, hidden, n)
    assert size == n * (hidden + classes)
    work = np.full(size + 5, np.nan)  # a larger work is fine
    tracemalloc.start()
    try:
        got = learner.evaluate(model, data, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * hidden * 8
    assert got == learner.evaluate(model, data)
    with pytest.raises(ValueError, match="work"):
        learner.evaluate(model, data, work[:size - 1])


def test_argmax_ties_break_to_lowest_class():
    data = learner.Dataset(np.array([[1.0, 1.0]]), np.array([0]), num_classes=3)
    model = learner.Model("logistic", 2, 3, 0, np.zeros(2 * 3 + 3))
    _, acc = learner.evaluate(model, data)  # uniform probs -> class 0 wins
    assert acc == 1.0


# --- batch sampling ---------------------------------------------------------

def reference_batches(shard, batch_size, stream, worker):
    """The per-worker sampling rule, one worker at a time: passes of
    len(shard) // b batches, each over a fresh permutation seeded by
    (*stream, worker, pass), the trailing partial batch dropped."""
    for pass_index in itertools.count():
        seq = np.random.SeedSequence((*stream, worker, pass_index))
        order = np.random.default_rng(seq).permutation(shard)
        for start in range(0, len(order) - batch_size + 1, batch_size):
            yield order[start:start + batch_size]


def test_sampler_deterministic_and_covering():
    shards = [np.arange(100, 120), np.arange(200, 215)]
    a = learner.ShardSampler(shards, 5, stream=(1,))
    b = learner.ShardSampler(shards, 5, stream=(1,))
    first_pass = np.stack([a.next_batch() for _ in range(4)], axis=1)
    np.testing.assert_array_equal(
        first_pass, np.stack([b.next_batch() for _ in range(4)], axis=1))
    assert first_pass.shape == (2, 4, 5)
    assert sorted(first_pass[0].ravel()) == list(shards[0])
    assert sorted(first_pass[1, :3].ravel()) == list(shards[1])


def test_sampler_reshuffles_between_passes():
    s = learner.ShardSampler([np.arange(60), np.arange(60, 120)], 10,
                             stream=(2,))
    passes = np.stack([s.next_batch() for _ in range(12)], axis=1)
    for row in passes.reshape(2, 2, 60):  # worker, pass, samples
        assert sorted(row[0]) == sorted(row[1])
        assert not np.array_equal(row[0], row[1])


def test_sampler_drops_trailing_partial_batch():
    s = learner.ShardSampler([np.arange(13), np.arange(13, 23)], 5,
                             stream=(3,))
    assert s.batches_per_pass == 2
    batches = [s.next_batch() for _ in range(4)]
    assert all(b.shape == (2, 5) for b in batches)
    assert all(set(b[0]) <= set(range(13)) for b in batches)


def test_sampler_rejects_oversized_batch():
    for shards, batch_size in (([np.arange(4)], 5),
                               # one short shard is enough
                               ([np.arange(10), np.arange(10, 14)], 5),
                               ([np.arange(4)], 0),
                               ([], 1)):
        with pytest.raises(ValueError):
            learner.ShardSampler(shards, batch_size, stream=(0,))


def test_workers_draw_different_batches():
    shard = np.arange(50)
    batch = learner.ShardSampler([shard, shard], 10, stream=(7,)).next_batch()
    assert not np.array_equal(batch[0], batch[1])


@pytest.mark.parametrize("lengths, batch_size", [
    ((9, 8, 12, 7, 5, 4), 4),      # 2, 2, 3, 1, 1, 1 batches per pass
    ((480,) * 25 + (479,) * 25, 32),  # K=50: 15 or 14 batches per pass
], ids=["uneven-k6", "k50"])
def test_sampler_matches_per_worker_reference(lengths, batch_size):
    rng = np.random.default_rng(5)
    shards = np.split(rng.permutation(sum(lengths)), np.cumsum(lengths)[:-1])
    sampler = learner.ShardSampler(shards, batch_size, stream=(11, 7))
    passes = [len(shard) // batch_size for shard in shards]
    assert sampler.batches_per_pass == max(passes)
    streams = [reference_batches(shard, batch_size, (11, 7), i)
               for i, shard in enumerate(shards)]
    for _ in range(3 * max(passes) + 1):  # 3+ passes of every worker
        np.testing.assert_array_equal(
            sampler.next_batch(), np.stack([next(s) for s in streams]))


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


def damage_gzip(path, damage):
    """Rewrite a gzipped file with its stream cut in half ("truncated") or
    its first deflate block of the reserved type ("corrupt")."""
    with open(path, "rb") as f:
        blob = bytearray(gzip.compress(gzip.decompress(f.read()), mtime=0))
    if damage == "truncated":
        del blob[len(blob) // 2:]
    else:
        blob[10] = 0xFF  # past the 10-byte header: BFINAL 1, BTYPE 11
    with open(path, "wb") as f:
        f.write(blob)


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(30)
    images = rng.integers(0, 256, size=(12, 4, 5), dtype=np.uint8)
    labels = rng.integers(0, 3, size=12, dtype=np.uint8)
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "labels.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    p, classes = learner.idx_shape([ip], [lp])
    assert (p, classes) == (20, int(labels.max()) + 1)
    data = learner.load_idx(ip, lp, classes)
    assert data.n == 12 and data.p == 20 and data.num_classes == classes
    assert data.features.min() >= 0.0 and data.features.max() <= 1.0
    np.testing.assert_allclose(data.features[0],
                               images[0].reshape(-1) / 255.0)


def test_load_idx_gzip(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 1], dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx.gz"), str(tmp_path / "l.idx.gz")
    write_idx_images(ip, images, gz=True)
    write_idx_labels(lp, labels, gz=True)
    data = learner.load_idx(ip, lp, 2)
    assert data.n == 3 and data.p == 4


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels, magic=0xDEADBEEF)
    with pytest.raises(learner.IdxFormatError):
        learner.load_idx(ip, lp, 2)


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "i.idx"
    ip.write_bytes(struct.pack(">IIII", learner.IDX_IMAGES_MAGIC, 10, 28, 28))
    lp = str(tmp_path / "l.idx")
    write_idx_labels(lp, np.zeros(10, dtype=np.uint8))
    with pytest.raises(learner.IdxFormatError):
        learner.load_idx(str(ip), lp, 10)


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
@pytest.mark.parametrize("what", ["images", "labels"])
def test_load_idx_damaged_gzip(tmp_path, what, damage):
    # gzip reports these as EOFError and zlib.error, which are neither
    # OSError nor ValueError.
    rng = np.random.default_rng(36)
    files = {"images": str(tmp_path / "i.idx.gz"),
             "labels": str(tmp_path / "l.idx.gz")}
    write_idx_images(files["images"],
                     rng.integers(0, 256, size=(40, 4, 5), dtype=np.uint8),
                     gz=True)
    write_idx_labels(files["labels"],
                     rng.integers(0, 3, size=40, dtype=np.uint8), gz=True)
    damage_gzip(files[what], damage)
    magic = {"images": learner.IDX_IMAGES_MAGIC,
             "labels": learner.IDX_LABELS_MAGIC}[what]
    with pytest.raises(learner.IdxFormatError, match=f"{what} file"):
        learner.read_idx(files[what], magic, what)


def test_idx_shape_counts_the_classes_of_every_label_file(tmp_path):
    # One class count for all splits: one more than the largest label in
    # any label file; labels at or above a caller's count are rejected.
    ip = str(tmp_path / "i.idx.gz")
    write_idx_images(ip, np.zeros((4, 3, 2), dtype=np.uint8), gz=True)
    paths = []
    for name, labels in (("a", [0, 1, 1, 0]), ("b", [4, 0]), ("c", [2])):
        paths.append(str(tmp_path / f"{name}.idx"))
        write_idx_labels(paths[-1], np.array(labels, dtype=np.uint8))
    assert learner.idx_shape([ip], paths) == (6, 5)
    assert learner.idx_shape([ip], paths[:1]) == (6, 2)
    assert learner.load_idx(ip, paths[0], 5).num_classes == 5
    with pytest.raises(ValueError, match="out of range"):
        learner.load_idx(ip, paths[0], 1)
    with pytest.raises(learner.IdxFormatError, match="magic"):
        learner.idx_shape(paths[:1], paths[1:2])
    with pytest.raises(learner.IdxFormatError, match="magic"):
        learner.idx_shape([ip], [paths[1], ip])


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    labels = np.zeros(5, dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    with pytest.raises(ValueError, match="count"):
        learner.load_idx(ip, lp, 1)


def test_load_idx_scales_pixels_in_place(tmp_path):
    # One float64 copy of the pixels: they are divided by 255 in place.
    rng = np.random.default_rng(32)
    images = rng.integers(0, 256, size=(500, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=500, dtype=np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    tracemalloc.start()
    try:
        data = learner.load_idx(ip, lp, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.features.nbytes
    expected = images.reshape(500, -1).astype(np.float64) / 255.0
    assert data.features.tobytes() == expected.tobytes()


MNIST_DIR = os.environ.get("MNIST_DIR", "")


@pytest.mark.skipif(
    not (MNIST_DIR and os.path.exists(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte.gz"))),
    reason="MNIST files not available (set MNIST_DIR)")
def test_load_mnist_train():
    data = learner.load_idx(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte.gz"),
        os.path.join(MNIST_DIR, "train-labels-idx1-ubyte.gz"), 10)
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


def test_make_blobs_builds_features_in_place():
    # The offsets are added into the drawn noise: the traced peak stays
    # near one features array, and the bits equal noise-plus-label.
    tracemalloc.start()
    try:
        data = learner.make_blobs(6000, 784, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.features.nbytes
    rng = np.random.default_rng(np.random.SeedSequence(3))
    labels = np.arange(6000, dtype=np.int64) % 10
    expected = labels[:, None] + rng.standard_normal((6000, 784))
    np.testing.assert_array_equal(data.labels, labels)
    assert data.features.tobytes() == expected.tobytes()


def test_make_blobs_invalid():
    with pytest.raises(ValueError):
        learner.make_blobs(0, 2, 3, seed=0)
    with pytest.raises(ValueError):
        learner.make_blobs(10, 2, 1, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_dataset_rejects_each_non_finite_feature(bad):
    features = np.zeros((5, 3))
    features[3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        learner.Dataset(features, np.zeros(5, dtype=np.int64), num_classes=2)


def test_dataset_finiteness_check_builds_no_n_by_p_array():
    # np.isfinite(features).all() would trace an (n, p) bool array.
    n, p = 6000, 784
    features = np.random.default_rng(4).standard_normal((n, p))
    labels = np.zeros(n, dtype=np.int64)
    tracemalloc.start()
    try:
        learner.Dataset(features, labels, num_classes=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * p
