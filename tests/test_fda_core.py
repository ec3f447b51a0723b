import dataclasses

import numpy as np
import pytest

from dynavg import cluster_sim as cs
from dynavg import fda_core, sketch, vecmath
from dynavg.fda_core import FedOpt, LinearFda, LocalSgd, SketchFda, Synchronous


def random_drifts(rng, k, d):
    return [rng.standard_normal(d) for _ in range(k)]


# --- exact variance ---------------------------------------------------------

def test_variance_identical_models_is_zero():
    w = np.array([1.0, 2.0, 3.0])
    assert fda_core.variance_exact([w, w.copy(), w.copy()]) == 0.0


def test_variance_hand_example():
    out = fda_core.variance_exact([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert out == pytest.approx(0.5, rel=1e-12)


def test_variance_offset_invariance():
    rng = np.random.default_rng(0)
    models = random_drifts(rng, 5, 40)
    offset = rng.standard_normal(40)
    base = fda_core.variance_exact(models)
    shifted = fda_core.variance_exact([m + offset for m in models])
    assert shifted == pytest.approx(base, rel=1e-10)


def test_variance_empty_error():
    with pytest.raises(ValueError):
        fda_core.variance_exact([])


# --- drift decomposition ----------------------------------------------------

def test_variance_from_drifts_hand_example():
    u1, u2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mean_norm = 0.5 * (1.0 + 1.0)
    mean_drift = np.array([0.5, 0.5])
    out = fda_core.variance_from_drifts(mean_norm, mean_drift)
    assert out == pytest.approx(0.5, rel=1e-12)
    models = [np.zeros(2) + u1, np.zeros(2) + u2]
    assert out == pytest.approx(fda_core.variance_exact(models), rel=1e-12)


def test_variance_from_drifts_equal_drifts_collapse():
    u = np.array([0.3, -0.7, 0.1])
    mean_norm = float(u @ u)
    assert fda_core.variance_from_drifts(mean_norm, u) == pytest.approx(0.0, abs=1e-15)


def test_decomposition_matches_exact_variance():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(50)
    drifts = random_drifts(rng, 7, 50)
    models = [base + u for u in drifts]
    mean_norm = sum(float(u @ u) for u in drifts) / 7
    mean_drift = sum(drifts) / 7
    by_drifts = fda_core.variance_from_drifts(mean_norm, mean_drift)
    assert by_drifts == pytest.approx(fda_core.variance_exact(models), rel=1e-10)


# --- local states -----------------------------------------------------------

def test_sketch_state_zero_drift():
    t = sketch.make_transform(10, 3, 6, seed=1)
    state = fda_core.make_local_state_sketch(np.zeros(10), t)
    assert state.drift_norm_sq == 0.0
    np.testing.assert_array_equal(state.summary, 0.0)


def test_sketch_state_norm_matches_vecmath():
    t = sketch.make_transform(24, 3, 6, seed=2)
    u = np.random.default_rng(3).standard_normal(24)
    state = fda_core.make_local_state_sketch(u, t)
    assert state.drift_norm_sq == float(np.dot(u, u))


def test_sketch_state_summary_linearity():
    t = sketch.make_transform(24, 3, 6, seed=2)
    rng = np.random.default_rng(4)
    u1, u2 = rng.standard_normal(24), rng.standard_normal(24)
    lhs = fda_core.make_local_state_sketch(u1 + u2, t).summary
    rhs = (fda_core.make_local_state_sketch(u1, t).summary
           + fda_core.make_local_state_sketch(u2, t).summary)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_linear_state_hand_example():
    state = fda_core.make_local_state_linear(
        np.array([3.0, 4.0]), np.array([1.0, 0.0]))
    assert state.drift_norm_sq == 25.0
    assert state.summary == 3.0


def test_linear_state_absent_xi():
    u = np.array([1.0, 2.0])
    state = fda_core.make_local_state_linear(u, None)
    assert state.drift_norm_sq == 5.0
    assert state.summary == 0.0


def test_linear_state_orthogonal_xi():
    state = fda_core.make_local_state_linear(
        np.array([0.0, 2.0]), np.array([1.0, 0.0]))
    assert state.summary == 0.0


def test_state_averaging_mixed_kinds_rejected():
    t = sketch.make_transform(4, 1, 2, seed=0)
    a = fda_core.make_local_state_sketch(np.ones(4), t)
    b = fda_core.make_local_state_linear(np.ones(4), None)
    with pytest.raises(ValueError):
        fda_core.average_states([a, b])
    with pytest.raises(ValueError):
        fda_core.average_states([])
    # A state of zero workers cannot be built, with or without xi.
    for build in (lambda u: fda_core.make_local_state_linear(u, None),
                  lambda u: fda_core.make_local_state_linear(u, np.ones(4)),
                  lambda u: fda_core.make_local_state_sketch(u, t)):
        with pytest.raises(ValueError):
            build(np.zeros((0, 4)))
    with pytest.raises(ValueError):  # nor averaged
        fda_core.average_states(fda_core.LocalState(
            drift_norm_sq=np.zeros(0), summary=np.array(0.0)))
    # A list holds one-worker states; two stacked states are not averaged.
    for s in (fda_core.make_local_state_sketch(np.ones((2, 4)), t),
              fda_core.make_local_state_linear(np.ones((2, 4)), None)):
        with pytest.raises(ValueError):
            fda_core.average_states([s, s])


def test_state_averaging_values():
    t = sketch.make_transform(6, 2, 3, seed=5)
    rng = np.random.default_rng(6)
    drifts = random_drifts(rng, 3, 6)
    avg = fda_core.average_states(
        [fda_core.make_local_state_sketch(u, t) for u in drifts])
    expected_norm = sum(float(u @ u) for u in drifts) / 3
    assert avg.mean_drift_norm_sq == pytest.approx(expected_norm, rel=1e-12)
    expected_rows = sum(sketch.apply(t, u).rows for u in drifts) / 3
    np.testing.assert_allclose(avg.mean_summary, expected_rows, rtol=1e-12)
    # One worker's state, built from a (d,) drift, averages to itself.
    xi = drifts[1] / np.linalg.norm(drifts[1])
    for state in (fda_core.make_local_state_sketch(drifts[0], t),
                  fda_core.make_local_state_linear(drifts[0], None),
                  fda_core.make_local_state_linear(drifts[0], xi)):
        avg = fda_core.average_states(state)
        assert avg.mean_drift_norm_sq == state.drift_norm_sq[0]
        assert np.array_equal(avg.mean_summary, state.summary)


def test_average_states_takes_a_sketch_without_worker_axis_as_the_mean():
    # A stacked state built from a (K, d) drift matrix carries one sketch of
    # the mean drift: averaging keeps it unchanged, while the K norms are
    # still added in ascending order, which this K = 9 data tells apart
    # from numpy's pairwise sum.
    rng = np.random.default_rng(0)
    norms = rng.uniform(0.1, 3.0, 9) ** 2 * rng.uniform(1, 1e3, 9)
    ascending = 0.0
    for v in norms:
        ascending += v
    assert float(np.sum(norms)) != ascending
    rows = rng.standard_normal((3, 5))
    avg = fda_core.average_states(fda_core.LocalState(
        drift_norm_sq=norms, summary=rows.copy()))
    assert avg.mean_drift_norm_sq == ascending / 9
    assert np.array_equal(avg.mean_summary, rows)


def ref_average_states(states):
    """Per-worker averaging in ascending order, the bit-exact reference."""
    k = len(states)
    mean_norm = sum(float(s.drift_norm_sq[0]) for s in states) / k
    acc = states[0].summary
    for s in states[1:]:
        acc = acc + s.summary
    return mean_norm, acc / k


@pytest.mark.parametrize("k", [3, 9])
def test_batched_states_match_per_worker_path(k):
    # Building all K states from the (K, d) drift matrix must give the same
    # norms, wire entries and (for projections) averages and H as K
    # per-worker calls.  The batched sketch state is one sketch of the mean
    # drift, so its average equals the mean of the K sketches up to
    # rounding.  K = 9 would expose numpy's pairwise summation of 8 or more
    # terms.
    d = 63
    rng = np.random.default_rng(46)
    drifts = rng.standard_normal((k, d)) * rng.uniform(0.1, 3.0, (k, 1))
    xi = rng.standard_normal(d)
    xi /= np.linalg.norm(xi)
    wide, single = (sketch.make_transform(d, 3, 5, seed=4),
                    sketch.make_transform(d, 1, 1, seed=4))
    if k >= 8:
        # The data must tell numpy's pairwise order from the ascending one
        # for every component, or the test could not see the difference.
        for values in (np.array([u @ u for u in drifts]),
                       np.array([xi @ u for u in drifts]),
                       np.array([sketch.apply(single, u).rows[0, 0]
                                 for u in drifts])):
            ascending = 0.0
            for v in values:
                ascending += v
            assert float(np.sum(values)) != ascending
    cases = [
        (None, lambda u: fda_core.make_local_state_linear(u, xi),
         fda_core.h_linear),
        (None, lambda u: fda_core.make_local_state_linear(u, None),
         fda_core.h_linear),
        (wide, lambda u: fda_core.make_local_state_sketch(u, wide),
         lambda avg: fda_core.h_sketch(avg, 0.3)),
        (single, lambda u: fda_core.make_local_state_sketch(u, single),
         lambda avg: fda_core.h_sketch(avg, 0.3)),
    ]
    for transform, make, h_of in cases:
        per_worker = [make(u) for u in drifts]
        batched = make(drifts)
        assert batched.workers == k
        for i, state in enumerate(per_worker):
            assert batched.drift_norm_sq[i] == state.drift_norm_sq[0]
        assert {s.entries for s in per_worker} == {batched.entries}
        ref_norm, ref_summary = ref_average_states(per_worker)
        ledger = cs.CostLedger()
        listed = fda_core.average_states(per_worker)
        stacked = cs.allreduce_average(batched, ledger, "state")
        assert ledger.bytes_state == k * 4 * batched.entries > 0
        averaged = listed, stacked
        for avg in averaged:
            assert avg.mean_drift_norm_sq == ref_norm
        if transform is None:
            for avg in averaged:
                assert avg.mean_summary == ref_summary
                assert h_of(avg) == h_of(listed)
            continue
        assert np.array_equal(listed.mean_summary, ref_summary)
        mean_drift = vecmath.ordered_sum(drifts) / k
        assert np.array_equal(stacked.mean_summary,
                              sketch.apply(transform, mean_drift).rows)
        np.testing.assert_allclose(stacked.mean_summary, ref_summary,
                                   rtol=1e-12, atol=0)
        assert h_of(stacked) == pytest.approx(h_of(listed), rel=1e-12)


@pytest.mark.parametrize("k", [3, 9])
def test_variance_exact_matrix_matches_per_worker_loop(k):
    rng = np.random.default_rng(1)
    models = rng.standard_normal((k, 40)) * rng.uniform(0.1, 3.0, (k, 1))
    mean = vecmath.average(list(models))
    norms = np.array([np.dot(w - mean, w - mean) for w in models])
    total = 0.0
    for v in norms:
        total += v
    if k >= 8:  # the data must tell numpy's pairwise sum from this loop
        assert float(np.sum(norms)) != total
    assert fda_core.variance_exact(models) == total / k
    assert fda_core.variance_exact(list(models)) == total / k


# --- H functions ------------------------------------------------------------

def test_h_sketch_zero_drifts():
    t = sketch.make_transform(8, 3, 4, seed=7)
    states = [fda_core.make_local_state_sketch(np.zeros(8), t) for _ in range(4)]
    avg = fda_core.average_states(states)
    assert fda_core.h_sketch(avg, eps=0.5) == 0.0


def test_h_sketch_with_perfect_estimate_overestimates():
    # Substitute an exact M2: a single-row sketch [|u_bar|, 0, ...] has
    # squared row norm exactly ||u_bar||^2.  The algebraic form
    # mean||u||^2 - ||u_bar||^2/(1+eps) then must dominate the variance.
    rng = np.random.default_rng(8)
    for _ in range(50):
        drifts = random_drifts(rng, 5, 30)
        mean_drift = sum(drifts) / 5
        mean_norm = sum(float(u @ u) for u in drifts) / 5
        perfect = np.array([[np.linalg.norm(mean_drift), 0.0, 0.0]])
        avg = fda_core.AveragedState(mean_drift_norm_sq=mean_norm,
                                     mean_summary=perfect)
        h = fda_core.h_sketch(avg, eps=0.25)
        var = fda_core.variance_from_drifts(mean_norm, mean_drift)
        assert h >= var - 1e-12


def test_h_sketch_eps_validation():
    t = sketch.make_transform(4, 1, 2, seed=9)
    sk_avg = fda_core.average_states(
        [fda_core.make_local_state_sketch(np.ones(4), t)])
    with pytest.raises(ValueError):
        fda_core.h_sketch(sk_avg, eps=0.0)


def test_h_linear_hand_example():
    xi = np.array([1.0, 0.0])
    states = [fda_core.make_local_state_linear(np.array([1.0, 0.0]), xi),
              fda_core.make_local_state_linear(np.array([0.0, 1.0]), xi)]
    avg = fda_core.average_states(states)
    h = fda_core.h_linear(avg)
    assert h == pytest.approx(0.75, rel=1e-12)
    assert h >= 0.5  # exact variance of the same configuration


def test_h_linear_absent_xi_maximal():
    states = [fda_core.make_local_state_linear(np.array([2.0, 0.0]), None),
              fda_core.make_local_state_linear(np.array([0.0, 1.0]), None)]
    avg = fda_core.average_states(states)
    assert fda_core.h_linear(avg) == pytest.approx(avg.mean_drift_norm_sq)


def test_h_linear_tight_when_drifts_parallel_to_xi():
    xi = np.array([0.6, 0.8])
    u = 3.0 * xi
    states = [fda_core.make_local_state_linear(u, xi) for _ in range(3)]
    avg = fda_core.average_states(states)
    assert fda_core.h_linear(avg) == pytest.approx(0.0, abs=1e-12)


def test_h_linear_always_overestimates():
    rng = np.random.default_rng(10)
    for _ in range(2000):
        k = int(rng.integers(1, 8))
        d = int(rng.integers(2, 40))
        drifts = random_drifts(rng, k, d)
        xi = rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        states = [fda_core.make_local_state_linear(u, xi) for u in drifts]
        h = fda_core.h_linear(fda_core.average_states(states))
        var = fda_core.variance_from_drifts(
            sum(float(u @ u) for u in drifts) / k, sum(drifts) / k)
        assert h >= var - 1e-12


# --- xi ---------------------------------------------------------------------

def test_compute_xi_direction():
    xi = fda_core.compute_xi(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(xi, [1.0, 0.0])


def test_compute_xi_degenerate():
    w = np.array([1.0, 2.0])
    assert fda_core.compute_xi(w, w.copy()) is None


def test_compute_xi_unit_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        xi = fda_core.compute_xi(a, b)
        assert float(xi @ xi) == pytest.approx(1.0, abs=1e-9)


# --- sync policies ----------------------------------------------------------

# Two workers whose drifts from w0 = 0 are e1 and e2.  Before any sync xi
# is absent, so H = mean ||u||^2 = 1.
TWO_DRIFTS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def recording_reduce(categories):
    """Average like the simulator and note each payload category."""
    def reduce(payloads, category):
        categories.append(category)
        if category == "state":
            return fda_core.average_states(payloads)
        return vecmath.average(payloads)
    return reduce


def step_once(strategy, params):
    categories = []
    hook = strategy.start(len(params[0]), np.zeros(len(params[0])), 1)
    h, common = hook(1, params, recording_reduce(categories))
    return h, common, categories


def synced_steps(hook, steps):
    return [t for t in range(1, steps + 1)
            if hook(t, TWO_DRIFTS, recording_reduce([]))[1] is not None]


def test_should_sync_linear_threshold():
    h, common, categories = step_once(LinearFda(theta=0.6), TWO_DRIFTS)
    assert h == 1.0
    np.testing.assert_array_equal(common, [0.5, 0.5])
    assert categories == ["state", "model-sync"]
    h, common, categories = step_once(LinearFda(theta=1.5), TWO_DRIFTS)
    assert h == 1.0 and common is None
    assert categories == ["state"]


def test_should_sync_tie_does_not_fire():
    h, common, _ = step_once(LinearFda(theta=1.0), TWO_DRIFTS)
    assert h == 1.0 and common is None


def test_should_sync_zero_theta_fires_on_any_positive_h():
    # theta = 0 degenerates to the every-step hook: no state exchange, and
    # a sync even where the models already agree.
    for strategy in (LinearFda(theta=0.0), SketchFda(theta=0.0)):
        for params in (TWO_DRIFTS, [np.ones(2), np.ones(2)]):
            h, common, categories = step_once(strategy, params)
            assert h is None and common is not None
            assert categories == ["model-sync"]


def test_should_sync_synchronous_always():
    hook = Synchronous().start(2, np.zeros(2), 1)
    for t in range(1, 4):
        categories = []
        h, common = hook(t, TWO_DRIFTS, recording_reduce(categories))
        assert h is None and categories == ["model-sync"]
        np.testing.assert_array_equal(common, [0.5, 0.5])


def test_should_sync_local_sgd_counter():
    hook = LocalSgd(tau=4).start(2, np.zeros(2), 10)
    assert synced_steps(hook, 12) == [4, 8, 12]


def test_should_sync_fedopt_epoch_boundary():
    hook = FedOpt(local_epochs=2).start(2, np.zeros(2), steps_per_epoch=10)
    assert synced_steps(hook, 45) == [20, 40]


def test_start_builds_fresh_monitor_state():
    strategy = LinearFda(theta=0.6)
    hook = strategy.start(2, np.zeros(2), 1)
    hook(1, TWO_DRIFTS, recording_reduce([]))  # syncs: xi and w_sync move
    h_after_sync, _ = hook(2, TWO_DRIFTS, recording_reduce([]))
    h_fresh, _, _ = step_once(strategy, TWO_DRIFTS)
    assert h_after_sync == pytest.approx(0.5)
    assert h_fresh == 1.0


def fedopt_server(**changes):
    return FedOpt(server=dataclasses.replace(FedOpt.server, **changes))


def test_validate_strategy():
    invalid = [
        lambda: LinearFda(theta=-1.0),
        lambda: LinearFda(theta=float("nan")),
        lambda: SketchFda(theta=-1.0),
        lambda: SketchFda(theta=0.1, rows=0),
        lambda: SketchFda(theta=0.1, cols=0),
        lambda: LocalSgd(tau=0),
        lambda: FedOpt(local_epochs=0),
        lambda: fedopt_server(kind="yogi"),
        lambda: fedopt_server(kind="sgd"),
        lambda: fedopt_server(nesterov=True),
        lambda: fedopt_server(weight_decay=0.1),
    ]
    for make in invalid:
        with pytest.raises(ValueError):
            make()
    LinearFda(theta=0.0)
    SketchFda(theta=0.0)
    LocalSgd(tau=1)


# --- server optimization ----------------------------------------------------

def server_round(strategy, w_global, params):
    """Run one FedOpt round from `w_global` on the (K, d) worker models."""
    hook = strategy.start(len(w_global), w_global, 1)
    h, common = hook(1, params, recording_reduce([]))
    assert h is None
    return common


def test_fedopt_zero_delta_keeps_global():
    strategy = fedopt_server(momentum=0.0)
    assert strategy.server.kind == "sgd-momentum"
    assert strategy.server.lr == 0.316
    w = np.array([1.0, -2.0, 0.5, 0.0])
    out = server_round(strategy, w, np.tile(w, (3, 1)))
    np.testing.assert_array_equal(out, w)
    assert out is not w


def test_fedopt_plain_averaging_reduces_to_fedavg():
    # A momentum-free SGD server at lr 1 steps to the mean client model.
    strategy = fedopt_server(lr=1.0, momentum=0.0)
    assert strategy.server.kind == "sgd-momentum"
    w = np.array([1.0, 1.0, 1.0])
    delta = np.array([0.5, -0.5, 0.25])
    params = w + np.array([delta - 0.25, delta + 0.25])
    out = server_round(strategy, w, params)
    np.testing.assert_allclose(out, w + delta, rtol=1e-15)
    np.testing.assert_array_equal(w, [1.0, 1.0, 1.0])  # the server copies


def test_fedopt_momentum_matches_recurrence():
    d = 5
    rng = np.random.default_rng(12)
    w = rng.standard_normal(d)
    deltas = [rng.standard_normal(d) for _ in range(3)]
    hook = FedOpt().start(d, w, 1)
    got = w
    for t, delta in enumerate(deltas, start=1):
        _, got = hook(t, (got + delta)[None], recording_reduce([]))
    vel = np.zeros(d)
    expected = w
    for delta in deltas:
        vel = 0.9 * vel + (-delta)
        expected = expected - 0.316 * vel
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_fedopt_adam_server_builds():
    # A server node keeps FedOpt's own defaults for the keys it omits.
    strategy = FedOpt.from_node(
        {"kind": "fedopt", "server": {"kind": "adam", "lr": 0.001}},
        theta=None)
    opt = strategy.server.build(6)
    assert opt.spec.kind == "adam" and opt.spec.lr == 0.001
    assert opt.spec.eps == 1e-7
    assert opt.slots["m"].shape == opt.slots["v"].shape == (6,)
