import functools
import tracemalloc

import numpy as np
import pytest

from dynavg import cluster_sim as cs
from dynavg import fda_core, sketch, vecmath
from dynavg.fda_core import (FedOpt, LinearFda, LocalSgd, ServerSpec,
                             SketchFda, Synchronous, SyncStrategy,
                             VarianceMonitor)

# Every strategy kind that is a variance monitor, so each new kind is
# covered by the tests that iterate over them.
MONITORS = [kind for kind in SyncStrategy.__subclasses__()
            if issubclass(kind, VarianceMonitor)]


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
    with pytest.raises(ValueError):  # nor read
        fda_core.h_linear(fda_core.LocalState(
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
    np.testing.assert_allclose(avg.summary, expected_rows, rtol=1e-12)
    # One worker's state, built from a (d,) drift, averages to itself.
    xi = drifts[1] / np.linalg.norm(drifts[1])
    for state in (fda_core.make_local_state_sketch(drifts[0], t),
                  fda_core.make_local_state_linear(drifts[0], None),
                  fda_core.make_local_state_linear(drifts[0], xi)):
        avg = fda_core.average_states([state])
        assert avg.mean_drift_norm_sq == state.drift_norm_sq[0]
        assert np.array_equal(avg.summary, state.summary)


def test_state_reduce_returns_it_with_norms_added_in_ascending_order():
    # A state of K workers already holds their mean summary: the AllReduce
    # bills it and returns it unchanged, while its mean norm adds the K
    # norms in ascending order, which this K = 9 data tells apart from
    # numpy's pairwise sum.
    rng = np.random.default_rng(0)
    norms = rng.uniform(0.1, 3.0, 9) ** 2 * rng.uniform(1, 1e3, 9)
    ascending = 0.0
    for v in norms:
        ascending += v
    assert float(np.sum(norms)) != ascending
    rows = rng.standard_normal((3, 5))
    state = fda_core.LocalState(drift_norm_sq=norms, summary=rows.copy())
    ledger = cs.CostLedger()
    assert cs.allreduce_average(state, ledger, "state") is state
    assert ledger.bytes_state == 4 * 9 * (1 + 15)
    assert state.mean_drift_norm_sq == ascending / 9
    assert np.array_equal(state.summary, rows)


def ref_average_states(states):
    """Per-worker averaging in ascending order, the bit-exact reference."""
    k = len(states)
    total = 0.0  # not builtin sum, which compensates from Python 3.12
    for s in states:
        total += float(s.drift_norm_sq[0])
    acc = states[0].summary
    for s in states[1:]:
        acc = acc + s.summary
    return total / k, acc / k


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
        batched = make(drifts.copy())  # a sketch state spends its drift
        assert batched.workers == k
        for i, state in enumerate(per_worker):
            assert batched.drift_norm_sq[i] == state.drift_norm_sq[0]
        assert {s.entries for s in per_worker} == {batched.entries}
        ref_norm, ref_summary = ref_average_states(per_worker)
        ledger = cs.CostLedger()
        listed = fda_core.average_states(per_worker)
        # The stacked state already holds the mean: the AllReduce bills
        # K times its entries and hands it back for H to read.
        assert cs.allreduce_average(batched, ledger, "state") is batched
        assert ledger.bytes_state == k * 4 * batched.entries > 0
        for state in (listed, batched):
            assert state.mean_drift_norm_sq == ref_norm
        if transform is None:
            for state in (listed, batched):
                assert state.summary == ref_summary
            assert h_of(batched) == h_of(listed)
            continue
        assert np.array_equal(listed.summary, ref_summary)
        mean_drift = vecmath.ordered_sum(drifts) / k
        assert np.array_equal(batched.summary,
                              sketch.apply(transform, mean_drift).rows)
        np.testing.assert_allclose(batched.summary, ref_summary,
                                   rtol=1e-12, atol=0)
        assert h_of(batched) == pytest.approx(h_of(listed), rel=1e-12)


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


def test_variance_exact_centres_the_rows_into_out():
    # The centred rows go into the caller's (K, d) matrix: the call itself
    # allocates only the (d,) mean.
    k, d = 5, 50_000
    models = np.random.default_rng(4).standard_normal((k, d))
    out = np.empty((k, d))
    tracemalloc.start()
    try:
        got = fda_core.variance_exact(models, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * d
    assert got == fda_core.variance_exact(models)
    np.testing.assert_array_equal(out, models - vecmath.average(models))


def test_sketch_state_makes_one_intp_row():
    # The mean drift is accumulated into the drift's first row, so the call
    # makes no (d,) float64 array; `sketch.apply` widens the bins into one
    # (d,) intp row at a time.
    k, d = 5, 100_000
    t = sketch.make_transform(d, 5, 250, seed=3)
    u = np.random.default_rng(5).standard_normal((k, d))
    scratch = u.copy()
    tracemalloc.start()
    try:
        state = fda_core.make_local_state_sketch(scratch, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * d
    expected = sketch.apply(t, vecmath.ordered_sum(u) / k).rows
    assert state.summary.tobytes() == expected.tobytes()
    assert state.drift_norm_sq.tobytes() == vecmath.norm_sq(u).tobytes()
    # Only the first row is spent; it holds the mean drift.
    np.testing.assert_array_equal(scratch[1:], u[1:])
    assert scratch[0].tobytes() == (vecmath.ordered_sum(u) / k).tobytes()


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
        perfect = np.array([[np.linalg.norm(mean_drift), 0.0, 0.0]])
        state = fda_core.LocalState(
            drift_norm_sq=np.array([float(u @ u) for u in drifts]),
            summary=perfect)
        h = fda_core.h_sketch(state, eps=0.25)
        var = fda_core.variance_from_drifts(state.mean_drift_norm_sq,
                                            mean_drift)
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

# Two workers whose drifts from the sync point w0 = 0 are e1 and e2.
# Before any sync xi is absent, so H = mean ||u||^2 = 1.
TWO_DRIFTS = np.array([[1.0, 0.0], [0.0, 1.0]])
W0 = np.zeros(2)


def recording_calls(calls):
    """A hook's exchange and sync calls: each returns what the simulator's
    does and notes its name in `calls`."""
    def exchange(state):
        calls.append("exchange")
        return state

    def sync(rows):
        calls.append("sync")
        return vecmath.average(rows)
    return exchange, sync


def scratch_like(params):
    """A hook's scratch matrix, NaN-filled: a hook must not read it."""
    return np.full(np.shape(params), np.nan)


def step_once(strategy, params):
    calls = []
    hook = strategy.start(len(params[0]), 1)
    h, common = hook(1, params, W0, *recording_calls(calls),
                     scratch_like(params))
    return h, common, calls


def synced_steps(hook, steps):
    return [t for t in range(1, steps + 1)
            if hook(t, TWO_DRIFTS, W0, *recording_calls([]),
                    scratch_like(TWO_DRIFTS))[1] is not None]


def test_should_sync_linear_threshold():
    h, common, calls = step_once(LinearFda(theta=0.6), TWO_DRIFTS)
    assert h == 1.0
    np.testing.assert_array_equal(common, [0.5, 0.5])
    assert calls == ["exchange", "sync"]
    h, common, calls = step_once(LinearFda(theta=1.5), TWO_DRIFTS)
    assert h == 1.0 and common is None
    assert calls == ["exchange"]


def test_should_sync_tie_does_not_fire():
    h, common, _ = step_once(LinearFda(theta=1.0), TWO_DRIFTS)
    assert h == 1.0 and common is None


def test_should_sync_zero_theta_fires_on_any_positive_h():
    # theta = 0 degenerates to the every-step hook: no state exchange, and
    # a sync even where the models already agree.
    for monitor in MONITORS:
        for params in (TWO_DRIFTS, np.ones((2, 2))):
            h, common, calls = step_once(monitor(theta=0.0), params)
            assert h is None and common is not None
            assert calls == ["sync"]


def test_should_sync_synchronous_always():
    hook = Synchronous().start(2, 1)
    for t in range(1, 4):
        calls = []
        h, common = hook(t, TWO_DRIFTS, W0, *recording_calls(calls),
                         scratch_like(TWO_DRIFTS))
        assert h is None and calls == ["sync"]
        np.testing.assert_array_equal(common, [0.5, 0.5])


def test_synchronous_is_local_sgd_at_period_one():
    # tau is a class constant, not a field: the node, the constructor and
    # a sweep's columns know no tau.
    assert isinstance(Synchronous(), LocalSgd) and Synchronous.tau == 1
    assert Synchronous().to_node() == {"kind": "synchronous"}
    assert SyncStrategy.pick({"kind": "synchronous"}) == Synchronous()
    with pytest.raises(TypeError):
        Synchronous(tau=1)


def test_a_variant_picks_its_own_kind_and_its_subclasses_kinds():
    assert LocalSgd.pick({"kind": "local-sgd", "tau": 3}) == LocalSgd(tau=3)
    assert LinearFda.pick({"kind": "linear-fda", "theta": 0.1}) \
        == LinearFda(theta=0.1)
    assert LocalSgd.pick({"kind": "synchronous"}) == Synchronous()
    with pytest.raises(ValueError, match="unknown LocalSgd kind 'fedopt'"):
        LocalSgd.pick({"kind": "fedopt"})
    assert cs.PartitionScheme.pick({}) == cs.Iid()


def test_should_sync_local_sgd_counter():
    hook = LocalSgd(tau=4).start(2, 10)
    assert synced_steps(hook, 12) == [4, 8, 12]


def test_should_sync_fedopt_epoch_boundary():
    hook = FedOpt(local_epochs=2).start(2, steps_per_epoch=10)
    assert synced_steps(hook, 45) == [20, 40]


# One spec of every strategy kind, and each monitor also at theta 0, where
# it runs local SGD at period 1.
EVERY_KIND = {
    "linear-fda": LinearFda(theta=0.5),
    "linear-fda-theta0": LinearFda(theta=0.0),
    "sketch-fda": SketchFda(theta=0.5, rows=3, cols=4),
    "sketch-fda-theta0": SketchFda(theta=0.0),
    "local-sgd": LocalSgd(tau=2), "synchronous": Synchronous(),
    "fedopt": FedOpt()}


def test_every_kind_has_its_payload_case():
    assert {type(s) for s in EVERY_KIND.values()} \
        == set(SyncStrategy.__subclasses__())


@pytest.mark.parametrize("strategy", EVERY_KIND.values(), ids=EVERY_KIND)
def test_hooks_send_states_to_exchange_and_matrices_to_sync(strategy):
    # `allreduce_average` takes the payload that its category names on
    # trust: exchange must get one LocalState of the K workers, and sync
    # the (K, d) rows.  The workers drift from the last common model by a
    # small step, which no monitor syncs on, then a large one, which each
    # syncs on; local SGD and FedOpt sync every second step.
    k, d = 3, 5
    rng = np.random.default_rng(7)
    common = rng.standard_normal(d)
    calls = []

    def exchange(state):
        assert isinstance(state, fda_core.LocalState)
        assert state.workers == k
        calls.append("exchange")
        return state

    def sync(rows):
        assert type(rows) is np.ndarray and rows.shape == (k, d)
        calls.append("sync")
        return vecmath.average(rows)

    hook = strategy.start(d, 2)
    synced = []
    for t, scale in enumerate([0.01, 10.0] * 2, start=1):
        params = common + scale * rng.standard_normal((k, d))
        _, new_common = hook(t, params, common, exchange, sync,
                             scratch_like(params))
        synced.append(new_common is not None)
        if new_common is not None:
            common = new_common
    monitors = getattr(strategy, "theta", 0) > 0
    every_step = getattr(strategy, "theta", None) == 0 \
        or getattr(strategy, "tau", None) == 1
    assert synced == ([True] * 4 if every_step else [False, True] * 2)
    assert calls.count("exchange") == (4 if monitors else 0)
    assert calls.count("sync") == sum(synced)


@pytest.mark.parametrize("strategy", EVERY_KIND.values(), ids=EVERY_KIND)
def test_hooks_read_the_sync_point_the_run_passes(strategy):
    # The run holds the common model: a monitor's drifts and FedOpt's
    # pseudo-gradient are taken from the w_sync of the call, while local
    # SGD and synchronous averaging never read it.  Step 2 is a sync step
    # of every fixed-period kind here.
    k, d = 3, 5
    rng = np.random.default_rng(19)
    params = rng.standard_normal((k, d))
    near, far = params.mean(axis=0), rng.standard_normal(d)
    (h_near, common_near), (h_far, common_far) = (
        strategy.start(d, 1)(2, params, w_sync, *recording_calls([]),
                             scratch_like(params))
        for w_sync in (near, far))
    if getattr(strategy, "theta", 0) > 0:
        assert h_near != h_far
    elif isinstance(strategy, FedOpt):
        assert h_near is h_far is None
        assert not np.array_equal(common_near, common_far)
    else:
        assert h_near is h_far is None
        np.testing.assert_array_equal(common_near, params.mean(axis=0))
        np.testing.assert_array_equal(common_far, common_near)


def test_start_builds_fresh_monitor_state():
    strategy = LinearFda(theta=0.6)
    hook = strategy.start(2, 1)
    scratch = scratch_like(TWO_DRIFTS)
    # The first call syncs, so xi moves and the run's w_sync is its model.
    _, w_sync = hook(1, TWO_DRIFTS, W0, *recording_calls([]), scratch)
    h_after_sync, _ = hook(2, TWO_DRIFTS, w_sync, *recording_calls([]),
                           scratch)
    h_fresh, _, _ = step_once(strategy, TWO_DRIFTS)
    assert h_after_sync == pytest.approx(0.5)
    assert h_fresh == 1.0


@pytest.mark.parametrize("strategy,syncs,quiet", [
    (LinearFda(theta=1e9), False, 0.1), (LinearFda(theta=1.0), True, None),
    (SketchFda(theta=1e9), False, 1.1), (SketchFda(theta=1.0), True, None),
    (FedOpt(), True, None),
], ids=["linear", "linear-syncing", "sketch", "sketch-syncing", "fedopt"])
def test_hooks_build_the_drift_in_scratch(strategy, syncs, quiet):
    # The (K, d) drift or pseudo-gradient goes into the run's scratch
    # matrix: no call allocates as much as one more (K, d) float64 array.
    # A step that does not sync builds its state there too: linear-fda
    # allocates less than a tenth of one (d,) vector, and sketch-fda one
    # (d,) intp row, which `sketch.apply` widens from the bins.
    k, d = 4, 50_000
    rng = np.random.default_rng(13)
    w0 = rng.standard_normal(d)
    params = w0 + rng.standard_normal((k, d))
    scratch = np.empty((k, d))
    hook = strategy.start(d, 1)
    w_sync = w0
    peaks, synced = [], []
    tracemalloc.start()
    try:
        for t in range(1, 4):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _, common = hook(t, params, w_sync, *recording_calls([]),
                             scratch)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            synced.append(common is not None)
            if common is not None:
                w_sync = common
    finally:
        tracemalloc.stop()
    assert synced == [syncs] * 3
    assert max(peaks) < (params.nbytes if syncs else quiet * 8 * d)


def fedopt_server(**changes):
    return FedOpt(server=ServerSpec(**changes))


def test_validate_strategy():
    invalid = [
        *(functools.partial(monitor, theta=theta) for monitor in MONITORS
          for theta in (-1.0, float("nan"))),
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
    for monitor in MONITORS:
        monitor(theta=0.0)
    LocalSgd(tau=1)


# --- server optimization ----------------------------------------------------

def server_round(strategy, w_global, params):
    """Run one FedOpt round from `w_global` on the (K, d) worker models."""
    hook = strategy.start(w_global.size, 1)
    h, common = hook(1, params, w_global, *recording_calls([]),
                     scratch_like(params))
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
    hook = FedOpt().start(d, 1)
    got = w
    for t, delta in enumerate(deltas, start=1):
        params = (got + delta)[None]
        _, got = hook(t, params, got, *recording_calls([]),
                      scratch_like(params))
    vel = np.zeros(d)
    expected = w
    for delta in deltas:
        vel = 0.9 * vel + (-delta)
        expected = expected - 0.316 * vel
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("node, expected", [
    ({"lr": 0.5}, ("sgd-momentum", 0.5, 0.9, 1e-7)),
    ({"kind": "adam", "eps": 1.0e-8}, ("adam", 0.316, 0.9, 1e-8)),
], ids=["lr", "adam-eps"])
def test_server_node_omits_keys_to_server_spec_defaults(node, expected):
    # (kind, lr, momentum, eps): the node's keys over ServerSpec's defaults.
    server = FedOpt.from_node({"kind": "fedopt", "server": node}).server
    assert (server.kind, server.lr, server.momentum, server.eps) == expected
    assert type(server) is ServerSpec


def test_fedopt_adam_server_builds():
    # A server node keeps ServerSpec's defaults for the keys it omits.
    strategy = FedOpt.from_node(
        {"kind": "fedopt", "server": {"kind": "adam", "lr": 0.001}})
    opt = strategy.server.build(6)
    assert opt.spec.kind == "adam" and opt.spec.lr == 0.001
    assert opt.spec.eps == 1e-7
    assert opt.slots["m"].shape == opt.slots["v"].shape == (6,)
