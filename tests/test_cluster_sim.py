import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from dynavg import cluster_sim as cs
from dynavg import fda_core, learner, sketch
from dynavg.fda_core import (
    FedOpt,
    LinearFda,
    LocalSgd,
    SketchFda,
    Synchronous,
)


def blobs_config(strategy, *, workers=3, n=600, p=8, classes=3, batch=16,
                 lr=0.05, seed=11, max_epochs=3, target=1.0, audit=False,
                 scheme=None, opt_kind="sgd"):
    return cs.RunConfig(
        dataset=cs.BlobsSpec(n=n, p=p, num_classes=classes, test_n=300),
        strategy=strategy,
        workers=workers,
        batch_size=batch,
        optimizer=cs.OptimizerSpec(kind=opt_kind, lr=lr),
        partition_scheme=scheme or cs.Iid(),
        accuracy_target=target,
        max_epochs=max_epochs,
        seed=seed,
        audit_variance=audit)


# --- partitioning -----------------------------------------------------------

def check_partition_invariants(shards, n):
    all_idx = np.concatenate(shards)
    assert len(all_idx) == n
    assert len(np.unique(all_idx)) == n
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_iid_single_worker():
    data = learner.make_blobs(100, 2, 2, seed=0)
    shards = cs.partition(data, 1, cs.Iid(), seed=1)
    assert sorted(shards[0]) == list(range(100))


def test_partition_iid_invariants():
    data = learner.make_blobs(103, 2, 4, seed=1)
    shards = cs.partition(data, 5, cs.Iid(), seed=2)
    check_partition_invariants(shards, 103)


def test_partition_deterministic():
    data = learner.make_blobs(60, 2, 3, seed=2)
    a = cs.partition(data, 4, cs.Iid(), seed=3)
    b = cs.partition(data, 4, cs.Iid(), seed=3)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa, sb)


def test_partition_fraction_fully_sorted_two_classes():
    data = learner.make_blobs(200, 2, 2, seed=3)
    shards = cs.partition(data, 2, cs.NonIidFraction(percent=100.0), seed=4)
    check_partition_invariants(shards, 200)
    for shard in shards:
        assert len(np.unique(data.labels[shard])) == 1  # label-pure


def test_partition_fraction_partial_skews_labels():
    data = learner.make_blobs(900, 2, 3, seed=4)
    shards = cs.partition(data, 3, cs.NonIidFraction(percent=60.0), seed=5)
    check_partition_invariants(shards, 900)
    # With 60% sorted, each worker's label histogram is visibly uneven.
    hists = [np.bincount(data.labels[s], minlength=3) for s in shards]
    assert any(h.max() - h.min() > 60 for h in hists)


def test_partition_fraction_zero_is_iid_like():
    data = learner.make_blobs(90, 2, 3, seed=5)
    shards = cs.partition(data, 3, cs.NonIidFraction(percent=0.0), seed=6)
    check_partition_invariants(shards, 90)


def test_partition_label_holder_takes_all():
    data = learner.make_blobs(600, 2, 3, seed=6)
    shards = cs.partition(data, 3, cs.NonIidLabel(label=0, holders=1), seed=7)
    check_partition_invariants(shards, 600)
    label0 = set(np.flatnonzero(data.labels == 0))
    assert label0 <= set(shards[0].tolist())
    for shard in shards[1:]:
        assert not (label0 & set(shard.tolist()))


def test_partition_label_two_holders_split():
    data = learner.make_blobs(600, 2, 3, seed=7)
    shards = cs.partition(data, 4, cs.NonIidLabel(label=1, holders=2), seed=8)
    check_partition_invariants(shards, 600)
    label1 = set(np.flatnonzero(data.labels == 1))
    held = set(shards[0].tolist()) | set(shards[1].tolist())
    assert label1 <= held


def test_partition_errors():
    data = learner.make_blobs(20, 2, 2, seed=8)
    with pytest.raises(ValueError):
        cs.partition(data, 21, cs.Iid(), seed=0)
    with pytest.raises(ValueError):
        cs.partition(data, 2, cs.NonIidFraction(percent=101.0), seed=0)
    with pytest.raises(ValueError):
        cs.partition(data, 2, cs.NonIidLabel(label=9), seed=0)
    with pytest.raises(ValueError):
        cs.partition(data, 2, cs.NonIidLabel(label=0, holders=3), seed=0)


def test_partition_label_capacity_error():
    # 10 single-label samples cannot fit one balanced shard of 5.
    features = np.zeros((10, 2))
    labels = np.zeros(10, dtype=np.int64)
    labels[:2] = 1
    data = learner.Dataset(features, labels, num_classes=2)
    with pytest.raises(ValueError, match="absorb"):
        cs.partition(data, 2, cs.NonIidLabel(label=0, holders=1), seed=0)


def labelled_data(labels) -> learner.Dataset:
    labels = np.asarray(labels, dtype=np.int64)
    return learner.Dataset(np.zeros((len(labels), 1)), labels,
                           num_classes=int(labels.max()) + 1)


def shards_digest(shards) -> str:
    h = hashlib.sha256(np.array([len(s) for s in shards]).tobytes())
    for shard in shards:
        h.update(np.asarray(shard, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# Every scheme's shards at fixed (n, K, seed), over 3-class labels drawn
# from default_rng(n); the digests lock the partitions byte for byte.
PARTITION_DIGESTS = [
    (600, 5, 101, cs.Iid(), "ad19e0b7e8eca51a"),
    (103, 4, 7, cs.Iid(), "7e0df9fc3959aadd"),
    (600, 5, 101, cs.NonIidFraction(percent=60.0), "900f36c56cef1abe"),
    (103, 4, 7, cs.NonIidFraction(percent=100.0), "0048cb8d1dd22e9b"),
    (57, 3, 2, cs.NonIidFraction(percent=0.0), "1d71c114d8b46c2d"),
    (600, 5, 101, cs.NonIidLabel(label=0, holders=2), "21374b86e65b8e48"),
    (103, 4, 7, cs.NonIidLabel(label=1, holders=2), "1e2b9ea2aeba0f83"),
    (57, 3, 2, cs.NonIidLabel(label=2, holders=2), "8b342923cd378982"),
    (30, 2, 5, cs.NonIidLabel(label=0, holders=1), "0c8a6c25e9b1f376"),
]


@pytest.mark.parametrize("n,k,seed,scheme,digest", PARTITION_DIGESTS)
def test_partition_digests_pinned(n, k, seed, scheme, digest):
    data = labelled_data(np.random.default_rng(n).integers(0, 3, n))
    assert shards_digest(cs.partition(data, k, scheme, seed)) == digest


def test_partition_small_n_sweep():
    # Every scheme at every n <= 12 and K <= n, over label 0 held by m of
    # the n samples: a split either raises ValueError or is balanced,
    # disjoint and covering, with label 0 only on the first holders.
    schemes = [cs.Iid()] + [cs.NonIidFraction(percent=p)
                            for p in (0.0, 30.0, 60.0, 100.0)]
    splits = 0
    for n in range(2, 13):
        for m in range(n + 1):
            labels = np.random.default_rng(100 * n + m).permutation(
                np.where(np.arange(n) < m, 0, 1 + np.arange(n) % 2))
            data = labelled_data(labels)
            for k in range(1, n + 1):
                label_schemes = [cs.NonIidLabel(label=0, holders=h)
                                 for h in range(1, k + 1)]
                for scheme in schemes + label_schemes:
                    try:
                        shards = cs.partition(data, k, scheme, seed=n + k)
                    except ValueError:
                        continue
                    splits += 1
                    check_partition_invariants(shards, n)
                    if isinstance(scheme, cs.NonIidLabel):
                        for shard in shards[scheme.holders:]:
                            assert (labels[shard] != 0).all()
    assert splits > 1000


# --- allreduce cost model ---------------------------------------------------

def test_allreduce_model_bytes():
    ledger = cs.CostLedger()
    cs.allreduce_average(np.zeros((5, 7850)), ledger, "model-sync")
    assert ledger.bytes_sync == 157_000
    assert ledger.bytes_state == 0


def test_allreduce_sketch_state_bytes():
    t = sketch.make_transform(100, 5, 250, seed=0)
    state = fda_core.make_local_state_sketch(np.zeros((5, 100)), t)
    ledger = cs.CostLedger()
    cs.allreduce_average(state, ledger, "state")
    assert ledger.bytes_state == 5 * (5000 + 4)
    assert ledger.bytes_sync == 0


def test_allreduce_linear_state_bytes():
    state = fda_core.make_local_state_linear(np.ones((3, 4)), None)
    ledger = cs.CostLedger()
    cs.allreduce_average(state, ledger, "state")
    assert ledger.bytes_state == 3 * 8
    assert ledger.bytes_sync == 0


def test_allreduce_single_worker_identity():
    ledger = cs.CostLedger()
    v = np.array([1.0, 2.0, 3.0])
    out = cs.allreduce_average(v[None], ledger, "model-sync")
    np.testing.assert_array_equal(out, v)
    assert ledger.bytes_sync == 12


def test_allreduce_mean_and_conservation():
    ledger = cs.CostLedger()
    vs = np.array([[1.0, 5.0], [3.0, -1.0]])
    out = cs.allreduce_average(vs, ledger, "model-sync")
    np.testing.assert_allclose(out, [2.0, 2.0], rtol=1e-12)


def test_allreduce_shape_mismatch():
    # Only a (K, d) matrix with K >= 1 is a model payload; nothing is billed
    # for a rejected one.
    ledger = cs.CostLedger()
    for payload in (np.zeros(3), np.zeros((2, 3, 4)), np.zeros((0, 3)),
                    [np.zeros(3), np.zeros(3)]):
        with pytest.raises(ValueError):
            cs.allreduce_average(payload, ledger, "model-sync")
    assert ledger.bytes_total == 0


def test_allreduce_rejects_unknown_or_mismatched_category():
    ledger = cs.CostLedger()
    matrix = np.ones((2, 3))
    state = fda_core.make_local_state_linear(matrix, None)
    listed = [fda_core.make_local_state_linear(u, None) for u in matrix]
    cases = [(matrix, "gradient"), (state, "gradient"), (matrix, None),
             (matrix, "state"), (state, "model-sync"), (listed, "state")]
    for payload, category in cases:
        with pytest.raises(ValueError):
            cs.allreduce_average(payload, ledger, category)
    with pytest.raises(TypeError):  # the category is never inferred
        cs.allreduce_average(matrix, ledger)
    assert ledger.bytes_total == 0


# --- full runs --------------------------------------------------------------

def test_run_deterministic():
    cfg = blobs_config(LinearFda(theta=0.01))
    a = cs.run(cfg)
    b = cs.run(cfg)
    assert a.final_bytes == b.final_bytes
    assert a.sync_count == b.sync_count
    np.testing.assert_array_equal(a.final_mean_params, b.final_mean_params)
    for ra, rb in zip(a.steps, b.steps):
        assert dataclasses.astuple(ra) == dataclasses.astuple(rb)
    for ea, eb in zip(a.epochs, b.epochs):
        assert dataclasses.astuple(ea) == dataclasses.astuple(eb)


def test_synchronous_run_ledger_closed_form():
    cfg = blobs_config(Synchronous(), workers=3, max_epochs=2)
    report = cs.run(cfg)
    d = report.final_mean_params.size
    assert report.sync_count == report.final_steps
    assert report.final_bytes == report.final_steps * 3 * 4 * d
    assert report.ledger.bytes_state == 0


def test_linear_fda_ledger_closed_form():
    cfg = blobs_config(LinearFda(theta=0.05), workers=4, max_epochs=3)
    report = cs.run(cfg)
    d = report.final_mean_params.size
    expected = report.final_steps * 4 * 8 + report.sync_count * 4 * 4 * d
    assert report.final_bytes == expected
    assert report.ledger.bytes_state == report.final_steps * 4 * 8


def test_sketch_fda_ledger_closed_form():
    strategy = SketchFda(theta=0.05, rows=3, cols=10, seed=5)
    cfg = blobs_config(strategy, workers=3, max_epochs=2)
    report = cs.run(cfg)
    d = report.final_mean_params.size
    state_payload = 4 * (3 * 10 + 1)
    expected = (report.final_steps * 3 * state_payload
                + report.sync_count * 3 * 4 * d)
    assert report.final_bytes == expected


def test_sketch_fda_sketches_once_per_step_and_bills_every_worker(monkeypatch):
    # The run sketches the mean drift, one (d,) vector per step, yet the
    # ledger still charges all K workers' sketches and models.
    shapes = []
    apply = sketch.apply

    def counting_apply(t, v):
        shapes.append(v.shape)
        return apply(t, v)

    monkeypatch.setattr(sketch, "apply", counting_apply)
    strategy = SketchFda(theta=0.05, rows=3, cols=10, seed=5)
    report = cs.run(blobs_config(strategy, workers=9, max_epochs=2))
    d, steps = report.final_mean_params.size, report.final_steps
    assert shapes == [(d,)] * steps
    assert 0 < report.sync_count < steps
    assert report.ledger.bytes_state == steps * 9 * 4 * (3 * 10 + 1)
    assert report.ledger.bytes_sync == report.sync_count * 9 * 4 * d


@pytest.mark.parametrize("strategy, reads_xi", [
    (SketchFda(theta=0.05, rows=3, cols=10, seed=5), False),
    (LinearFda(theta=0.05), True),
], ids=["sketch-fda", "linear-fda"])
def test_xi_computed_only_where_the_state_reads_it(monkeypatch, strategy,
                                                   reads_xi):
    calls = []
    compute_xi = fda_core.compute_xi

    def counting_compute_xi(now, prev):
        calls.append(1)
        return compute_xi(now, prev)

    monkeypatch.setattr(fda_core, "compute_xi", counting_compute_xi)
    report = cs.run(blobs_config(strategy, workers=3, max_epochs=2))
    assert report.sync_count > 0
    assert len(calls) == (report.sync_count if reads_xi else 0)


def test_infinite_theta_never_syncs():
    cfg = blobs_config(LinearFda(theta=float("inf")), workers=3, max_epochs=2)
    report = cs.run(cfg)
    assert report.sync_count == 0
    assert report.final_bytes == report.final_steps * 3 * 8


def test_zero_theta_equals_synchronous_ledger():
    # A zero threshold degenerates to the every-step baseline, bytes and all.
    for strategy in (LinearFda(theta=0.0), SketchFda(theta=0.0)):
        fda_report = cs.run(blobs_config(strategy, max_epochs=2))
        sync_report = cs.run(blobs_config(Synchronous(), max_epochs=2))
        assert fda_report.sync_count == fda_report.final_steps
        assert fda_report.final_bytes == sync_report.final_bytes
        assert fda_report.ledger.bytes_state == 0
        np.testing.assert_array_equal(fda_report.final_mean_params,
                                      sync_report.final_mean_params)


def test_single_node_equivalence_oracle():
    # Every-step averaging with plain SGD equals single-node training on the
    # union dataset whose step-t batch concatenates the worker batches.
    k, b, seed = 3, 8, 29
    cfg = blobs_config(Synchronous(), workers=k, n=480, p=5, classes=3,
                       batch=b, lr=0.05, seed=seed, max_epochs=10)
    report = cs.run(cfg)
    assert report.final_steps == 200

    train, _ = cfg.dataset.load(cfg.seed)
    shards = cs.partition(train, k, cs.Iid(),
                          cs.derive_seed(seed, cs._SEED_PARTITION))
    model = learner.init_model("logistic", train.p, train.num_classes,
                               seed=cs.derive_seed(seed, cs._SEED_INIT))
    sampler = learner.ShardSampler(shards, b, seed)
    params = model.params.copy()
    for _ in range(report.final_steps):
        batch = sampler.next_batch().ravel()  # worker 0's batch first
        m = dataclasses.replace(model, params=params)
        _, grad = learner.loss_and_grad(m, batch, train)
        params = params - 0.05 * grad
    distance = np.linalg.norm(params - report.final_mean_params)
    assert distance < 1e-8


def test_local_sgd_sync_cadence():
    cfg = blobs_config(LocalSgd(tau=4), workers=3, max_epochs=2)
    report = cs.run(cfg)
    synced_steps = [r.step for r in report.steps if r.synced]
    assert synced_steps == [s for s in range(4, report.final_steps + 1, 4)]
    d = report.final_mean_params.size
    assert report.final_bytes == len(synced_steps) * 3 * 4 * d
    assert report.ledger.bytes_state == 0


def test_fedopt_round_cadence_and_bytes():
    strategy = FedOpt(local_epochs=2)
    cfg = blobs_config(strategy, workers=3, max_epochs=6)
    report = cs.run(cfg)
    steps_per_epoch = report.final_steps // 6
    synced_steps = [r.step for r in report.steps if r.synced]
    assert synced_steps == [2 * steps_per_epoch, 4 * steps_per_epoch,
                            6 * steps_per_epoch]
    assert report.final_bytes == 3 * 3 * 4 * report.final_mean_params.size
    assert report.ledger.bytes_state == 0


@dataclasses.dataclass(frozen=True)
class SyncAtSteps:
    """Test-only policy: a full model average at fixed steps, nothing else."""

    steps: tuple = (2, 5)
    label = "sync-at-steps"

    def start(self, d, w0, steps_per_epoch):
        def hook(t, params, reduce, scratch):
            if t not in self.steps:
                return None, None
            return None, reduce(params, "model-sync")
        return hook


def test_run_accepts_any_strategy_with_a_step_hook():
    report = cs.run(blobs_config(SyncAtSteps(), workers=3, max_epochs=1))
    assert [r.step for r in report.steps if r.synced] == [2, 5]
    assert report.sync_count == 2
    d = report.final_mean_params.size
    assert report.ledger.bytes_sync == 2 * 3 * 4 * d
    assert report.ledger.bytes_state == 0


def test_fedopt_with_adam_server_runs():
    strategy = FedOpt(server=dataclasses.replace(FedOpt.server, kind="adam",
                                                 lr=0.01), local_epochs=1)
    report = cs.run(blobs_config(strategy, max_epochs=2))
    assert report.sync_count == 2


def test_linear_fda_monitoring_soundness():
    # Wherever no sync fired, the audited exact variance obeys the bound.
    theta = 0.02
    cfg = blobs_config(LinearFda(theta=theta), workers=4, lr=0.08,
                       max_epochs=4, audit=True)
    report = cs.run(cfg)
    monitored = [r for r in report.steps if not r.synced]
    assert monitored, "expected some non-sync steps"
    assert all(r.variance <= theta for r in monitored)
    assert any(r.synced for r in report.steps), "expected at least one sync"


def test_audit_variance_reset_after_sync():
    cfg = blobs_config(Synchronous(), workers=3, max_epochs=1, audit=True)
    report = cs.run(cfg)
    # Audit happens before the sync, so recorded variance is the pre-sync
    # value; after the first sync the workers restart from a common model
    # and one local step keeps them close.
    assert next(iter(report.steps)).variance >= 0.0


def test_post_sync_variance_resets():
    # Audited variance is measured before the sync; the step after a sync
    # starts from identical models, so only one step of drift remains.
    cfg = blobs_config(LocalSgd(tau=3), workers=4, lr=0.05, max_epochs=2,
                       audit=True)
    report = cs.run(cfg)
    by_step = {r.step: r for r in report.steps}
    sync_steps = [r.step for r in report.steps if r.synced]
    assert sync_steps
    at_sync = np.mean([by_step[s].variance for s in sync_steps])
    after_sync = np.mean([by_step[s + 1].variance for s in sync_steps
                          if s + 1 in by_step])
    assert after_sync < at_sync / 2


def test_h_values_recorded_for_monitoring_runs():
    cfg = blobs_config(LinearFda(theta=0.01), max_epochs=1)
    report = cs.run(cfg)
    assert all(r.h_value is not None for r in report.steps)
    cfg = blobs_config(Synchronous(), max_epochs=1)
    report = cs.run(cfg)
    assert all(r.h_value is None for r in report.steps)


def test_reached_target_stops_early():
    cfg = blobs_config(Synchronous(), workers=2, p=25, lr=0.2, max_epochs=50,
                       target=0.9)
    report = cs.run(cfg)
    assert report.reached_target
    assert len(report.epochs) < 50
    assert report.epochs[-1].test_accuracy >= 0.9


def test_max_epochs_exceeded_reports_not_reached():
    cfg = blobs_config(Synchronous(), max_epochs=1, target=0.999)
    report = cs.run(cfg)
    assert not report.reached_target
    assert len(report.epochs) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_aborts():
    cfg = blobs_config(Synchronous(), max_epochs=1, lr=1e160, opt_kind="sgd")
    cfg = dataclasses.replace(cfg, model_kind="mlp", hidden=8)
    with pytest.raises(cs.RunDivergedError):
        cs.run(cfg)


@pytest.mark.parametrize("overrides", [
    {"max_epochs": 0},
    {"workers": 0},
    {"batch_size": 0},
    {"model_kind": "cnn"},
    {"model_kind": "mlp", "hidden": 0},
    {"model_kind": "logistic", "hidden": 128},
    {"init_scheme": "zeros"},
    {"partition_scheme": cs.NonIidLabel(label=0, holders=3), "workers": 2},
    {"partition_scheme": cs.NonIidLabel(label=3)},
], ids=["max-epochs-0", "workers-0", "batch-0", "model-cnn", "mlp-hidden-0",
        "logistic-hidden", "init-zeros", "holders-over-workers",
        "label-over-classes"])
def test_run_config_validates_itself(overrides):
    # blobs_config has 3 workers and 3 classes.
    with pytest.raises(ValueError):
        dataclasses.replace(blobs_config(Synchronous()), **overrides)


def test_run_config_is_frozen():
    # An assignment would skip __post_init__, so a config cannot change
    # once it has validated itself.
    cfg = blobs_config(Synchronous())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_epochs = 0


def test_run_rejects_invalid_strategy():
    with pytest.raises(ValueError):
        cs.run(blobs_config(LinearFda(theta=-0.5)))


def test_epoch_records_are_cumulative():
    cfg = blobs_config(LinearFda(theta=0.01), max_epochs=3)
    report = cs.run(cfg)
    steps = [e.steps for e in report.epochs]
    assert steps == sorted(steps)
    totals = [e.bytes_total for e in report.epochs]
    assert totals == sorted(totals)
    # The run's totals, read from its last record, match the ledger and
    # the step log.
    assert report.final_bytes == report.ledger.bytes_total
    assert report.final_steps == len(report.steps)
    assert report.sync_count == sum(report.steps.column("synced"))


def test_mlp_run_works():
    cfg = blobs_config(LinearFda(theta=0.05), max_epochs=2)
    cfg = dataclasses.replace(cfg, model_kind="mlp", hidden=6,
                              init_scheme="he-normal")
    report = cs.run(cfg)
    assert report.final_mean_params.size == learner.param_count("mlp", 8, 3, 6)
    assert report.final_steps > 0


def sketch_mlp_run_over_data(audit: bool, test_n: int) -> float:
    """The traced peak of a sketch-fda MLP run (p=784, h=128: d = 101,770),
    in (d,) float64 vectors, over its data and the three arrays every such
    run holds throughout: the K models, the run's workspace (here K*d
    entries, the size of the gradient buffer) and the transform's uint16
    bins."""
    k, rows = 5, 5
    cfg = blobs_config(SketchFda(theta=1.0, rows=rows, cols=250, seed=2),
                       workers=k, n=400, p=784, classes=10, lr=0.3,
                       max_epochs=2, audit=audit)
    cfg = dataclasses.replace(
        cfg, model_kind="mlp", hidden=128,
        dataset=dataclasses.replace(cfg.dataset, test_n=test_n))
    # numpy 2 loads numpy.random on first use: load it untraced, so the
    # peak is the same whichever test ran first in the process.
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        report = cs.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = report.final_mean_params.size
    assert report.sync_count > 0 and d == 101_770
    data = sum(x.features.nbytes + x.labels.nbytes
               for x in cfg.dataset.load(cfg.seed))
    return (peak - data - 2 * k * d * 8 - rows * d * 2) / (8 * d)


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audit"])
def test_sketch_mlp_run_holds_models_gradient_and_transform(audit):
    # Beyond the data, the models, the workspace and the bins, a run holds
    # fewer than three (d,) float64 or intp vectors: the sync point, and
    # either a sync's new mean, one step's gathered (K, b, p) batch or the
    # (d,) intp row that `sketch.apply` widens.  The audit centres into the
    # workspace.
    assert sketch_mlp_run_over_data(audit, test_n=300) < 3


def test_sketch_mlp_run_memory_does_not_grow_with_test_n():
    # The test set's (2000, 128) and (2000, 10) activations (2.7 d floats)
    # and the mean model go into the workspace, which the gradient buffer
    # already sizes at K*d: the run keeps the budget of a test set of 300.
    assert sketch_mlp_run_over_data(audit=False, test_n=2000) < 3


def idx_spec(tmp_path, test_classes=3) -> cs.IdxSpec:
    """Random 3x4 images with labels below 3 (train) and below
    test_classes (test), written as IDX files."""
    from test_learner import write_idx_images, write_idx_labels

    rng = np.random.default_rng(31)
    paths = {}
    for split, n, classes in (("train", 120, 3), ("test", 40, test_classes)):
        images = rng.integers(0, 256, size=(n, 3, 4), dtype=np.uint8)
        labels = rng.integers(0, classes, size=n, dtype=np.uint8)
        ip = str(tmp_path / f"{split}-images.idx.gz")
        lp = str(tmp_path / f"{split}-labels.idx")
        write_idx_images(ip, images, gz=True)
        write_idx_labels(lp, labels)
        paths[split] = (ip, lp)
    return cs.IdxSpec(train_images=paths["train"][0],
                      train_labels=paths["train"][1],
                      test_images=paths["test"][0],
                      test_labels=paths["test"][1])


def test_idx_load_reads_each_file_once(tmp_path, monkeypatch):
    spec = idx_spec(tmp_path, test_classes=5)
    read, paths = learner.read_idx, []

    def counting_read(path, *args):
        paths.append(path)
        return read(path, *args)

    monkeypatch.setattr(learner, "read_idx", counting_read)
    monkeypatch.setattr(cs, "read_idx", counting_read)
    monkeypatch.setattr(cs, "idx_shape", lambda *a: pytest.fail("header"))
    train, test = spec.load(run_seed=0)
    assert sorted(paths) == sorted(dataclasses.astuple(spec))  # 4 reads
    # Both splits share the larger class count, as shape() reports it.
    assert train.num_classes == test.num_classes == 1 + max(test.labels)
    monkeypatch.undo()
    assert spec.shape() == (12, train.num_classes)


def test_idx_dataset_run(tmp_path):
    cfg = cs.RunConfig(
        dataset=idx_spec(tmp_path),
        strategy=LinearFda(theta=0.05), workers=2, batch_size=8,
        optimizer=cs.OptimizerSpec(kind="sgd", lr=0.05),
        accuracy_target=1.0, max_epochs=2, seed=13)
    report = cs.run(cfg)
    d = report.final_mean_params.size
    assert d == learner.param_count("logistic", 12, 3)
    assert report.final_steps == 2 * (60 // 8)


# --- the step log -----------------------------------------------------------

STEP_ROWS = [  # (synced, h_value, variance, train_loss, bytes_cumulative)
    (False, None, None, 1.5, 8),
    (True, float("nan"), -0.0, 0.25, 2 ** 40),
    (False, float("inf"), None, 0.0, 2 ** 40 + 8),
    (True, float("-inf"), float("nan"), -0.0, 2 ** 40 + 16),
    (False, -0.0, float("inf"), 2.0, 2 ** 40 + 24),
    (False, 0.125, float("-inf"), 1e-300, 2 ** 40 + 32),
]


def filled_step_log() -> cs.StepLog:
    log = cs.StepLog()
    for row in STEP_ROWS:
        log.append(*row)
    return log


def test_step_log_round_trips_none_nan_inf_and_negative_zero():
    # repr tells None, NaN, ±inf, 0.0 and -0.0 apart, where == cannot.
    log = filled_step_log()
    assert len(log) == len(STEP_ROWS)
    records = list(log)
    assert len(records) == len(STEP_ROWS)
    for i, (row, record) in enumerate(zip(STEP_ROWS, records)):
        assert isinstance(record, cs.StepRecord)
        assert repr(dataclasses.astuple(record)) == repr((i + 1, *row))
        assert type(record.synced) is bool


def test_step_log_reads_rows_and_columns_in_step_order():
    # Rows are read by iteration, fields by column; the log is not indexed.
    log = filled_step_log()
    rows = list(log)
    assert [r.step for r in rows] == list(range(1, len(STEP_ROWS) + 1))
    assert repr(list(log)) == repr(rows)  # each iteration starts afresh
    for field in dataclasses.fields(cs.StepRecord):
        assert repr(list(log.column(field.name))) == \
            repr([getattr(r, field.name) for r in rows])
    with pytest.raises(KeyError):
        log.column("H")
    with pytest.raises(TypeError):
        log[0]
    assert len(cs.StepLog()) == 0 and list(cs.StepLog()) == []


def test_step_log_of_a_long_blobs_run_retains_at_most_48_bytes_per_step():
    # 2 workers, batches of 1: 2,000 steps per epoch.  The memory freed by
    # dropping the log is what it held.
    cfg = blobs_config(LinearFda(theta=0.5), workers=2, n=4000, p=4,
                       batch=1, lr=0.01, max_epochs=4)
    tracemalloc.start()
    try:
        report = cs.run(cfg)
        steps = len(report.steps)
        held = tracemalloc.get_traced_memory()[0]
        report.steps = None
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert steps == report.final_steps == 8000
    assert retained <= 48 * steps
