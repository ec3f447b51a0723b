"""Deterministic K-worker training simulator with communication accounting.

Workers hold private models over disjoint shards of one dataset.  Every
step each worker optimizes on a local mini-batch; depending on the
strategy, small monitoring states are averaged (and charged to the cost
ledger) and a full model average may follow.  All reductions happen in
ascending worker order, every random choice derives from the run seed, and
two runs with the same config produce identical reports.

Transmitted payloads are charged at 4 bytes per real entry (the wire cost
model), independent of the float64 arithmetic used internally.  Each
AllReduce event costs K * payload_bytes: every worker ships its payload
once.  Exact-variance audits and per-epoch evaluation read worker models
through an oracle channel that is never charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import fda_core
from .fda_core import LocalState, SyncStrategy
from .learner import (
    Dataset,
    Model,
    OptimizerState,
    ShardSampler,
    apply_gradient,
    evaluate,
    init_model,
    load_idx,
    loss_and_grad,
    make_blobs,
    make_optimizer,
    param_count,
)
from .vecmath import ParamVector, average

WIRE_BYTES_PER_ENTRY = 4

# Tags for deriving named sub-seeds from the run seed.
_SEED_PARTITION = 1
_SEED_INIT = 2
_SEED_BLOBS_TRAIN = 4
_SEED_BLOBS_TEST = 5


class RunDivergedError(RuntimeError):
    """Raised when training produces non-finite losses or parameters."""


def derive_seed(run_seed: int, *tags: int) -> int:
    """Stable named sub-seed so independent streams never collide."""
    return int(np.random.SeedSequence((run_seed, *tags)).generate_state(1)[0])


# --- data partitioning ------------------------------------------------------

@dataclass(frozen=True)
class Iid:
    pass


@dataclass(frozen=True)
class NonIidFraction:
    percent: float


@dataclass(frozen=True)
class NonIidLabel:
    label: int
    holders: int = 1


PartitionScheme = Union[Iid, NonIidFraction, NonIidLabel]


@dataclass
class Partition:
    shards: list  # K index arrays, disjoint, covering the dataset


def _target_sizes(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + 1 if i < rem else base for i in range(k)]


def partition(data: Dataset, k: int, scheme: PartitionScheme,
              seed: int) -> Partition:
    """Split the dataset into K near-equal shards (sizes differ by <= 1).

    IID deals a seeded shuffle round-robin.  The fraction scheme sorts a
    random X% subset by label and hands each worker one contiguous run of
    it, topping shards up from the shuffled remainder.  The label scheme
    routes every sample of one label to the first `holders` workers.
    """
    n = data.n
    if k < 1:
        raise ValueError("need at least one worker")
    if k > n:
        raise ValueError(f"more workers ({k}) than samples ({n})")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(scheme, Iid):
        perm = rng.permutation(n)
        shards = [perm[i::k] for i in range(k)]
        return Partition(shards=shards)

    targets = _target_sizes(n, k)
    if isinstance(scheme, NonIidFraction):
        if not 0.0 <= scheme.percent <= 100.0:
            raise ValueError(f"fraction {scheme.percent} not in [0, 100]")
        n_sorted = round(n * scheme.percent / 100.0)
        perm = rng.permutation(n)
        chosen, rest = perm[:n_sorted], perm[n_sorted:]
        by_label = chosen[np.argsort(data.labels[chosen], kind="stable")]
        shards = []
        pos = 0
        for size in _target_sizes(n_sorted, k) if n_sorted else [0] * k:
            shards.append(list(by_label[pos:pos + size]))
            pos += size
        pos = 0
        for i in range(k):
            need = targets[i] - len(shards[i])
            shards[i].extend(rest[pos:pos + need])
            pos += need
        return Partition(shards=[np.array(s, dtype=np.int64) for s in shards])

    if isinstance(scheme, NonIidLabel):
        if scheme.label not in data.labels:
            raise ValueError(f"label {scheme.label} not present in dataset")
        if not 1 <= scheme.holders <= k:
            raise ValueError(f"holder count {scheme.holders} not in [1, {k}]")
        labelled = np.flatnonzero(data.labels == scheme.label)
        shards = [list(labelled[i::scheme.holders]) for i in range(scheme.holders)]
        shards += [[] for _ in range(k - scheme.holders)]
        for i in range(scheme.holders):
            if len(shards[i]) > targets[i]:
                raise ValueError(
                    f"label {scheme.label} has {len(labelled)} samples; "
                    f"{scheme.holders} holder shard(s) cannot absorb them "
                    f"while keeping shards balanced")
        rest = rng.permutation(np.flatnonzero(data.labels != scheme.label))
        pos = 0
        for i in range(k):
            need = targets[i] - len(shards[i])
            shards[i].extend(rest[pos:pos + need])
            pos += need
        return Partition(shards=[np.array(s, dtype=np.int64) for s in shards])

    raise TypeError(f"unknown partition scheme {scheme!r}")


# --- communication cost -----------------------------------------------------

@dataclass
class CostLedger:
    bytes_state: int = 0
    bytes_sync: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_state + self.bytes_sync


def payload_bytes(payload) -> int:
    """Wire size of one worker's payload under the 4-byte-entry model."""
    if isinstance(payload, np.ndarray):
        return WIRE_BYTES_PER_ENTRY * payload.size
    if isinstance(payload, LocalState):
        if payload.is_sketch:
            return WIRE_BYTES_PER_ENTRY * (payload.summary.rows.size + 1)
        return WIRE_BYTES_PER_ENTRY * 2
    raise TypeError(f"unsupported payload {type(payload)!r}")


def allreduce_average(payloads: list, ledger: CostLedger,
                      category: Optional[str] = None):
    """Average K same-kind payloads and charge K * payload_bytes.

    Vectors are averaged elementwise in ascending worker order; local
    states average their norm and summary components.  Category defaults
    to "model-sync" for vectors and "state" for local states.
    """
    if len(payloads) == 0:
        raise ValueError("allreduce over an empty payload list")
    first = payloads[0]
    cost = len(payloads) * payload_bytes(first)
    if category is None:
        category = "model-sync" if isinstance(first, np.ndarray) else "state"
    if category == "state":
        ledger.bytes_state += cost
    elif category == "model-sync":
        ledger.bytes_sync += cost
    else:
        raise ValueError(f"unknown cost category {category!r}")
    if isinstance(first, np.ndarray):
        return average(payloads)
    return fda_core.average_states(payloads)


# --- run configuration ------------------------------------------------------

@dataclass(frozen=True)
class BlobsSpec:
    n: int
    p: int
    num_classes: int
    test_n: int = 1000
    seed: Optional[int] = None  # derived from the run seed when omitted


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


DatasetSpec = Union[BlobsSpec, IdxSpec]


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "sgd"
    lr: float = 0.01
    momentum: float = 0.9
    nesterov: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def build(self, d: int) -> OptimizerState:
        return make_optimizer(self.kind, d, self.lr, momentum=self.momentum,
                              nesterov=self.nesterov, beta1=self.beta1,
                              beta2=self.beta2, eps=self.eps,
                              weight_decay=self.weight_decay)


@dataclass
class RunConfig:
    dataset: DatasetSpec
    strategy: SyncStrategy
    workers: int
    batch_size: int
    model_kind: str = "logistic"
    hidden: int = 0
    init_scheme: str = "glorot-uniform"
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    partition_scheme: PartitionScheme = field(default_factory=Iid)
    accuracy_target: float = 1.0
    max_epochs: int = 10
    seed: int = 0
    audit_variance: bool = False
    metrics_csv: Optional[str] = None
    events_jsonl: Optional[str] = None


# --- run reporting ----------------------------------------------------------

@dataclass
class StepRecord:
    step: int
    synced: bool
    h_value: Optional[float]
    variance: Optional[float]  # exact, pre-sync; only under audit
    train_loss: float
    bytes_cumulative: int


@dataclass
class EpochRecord:
    epoch: int
    test_accuracy: float
    train_loss: float
    bytes_total: int
    bytes_state: int
    bytes_sync: int
    steps: int
    syncs: int


@dataclass
class RunReport:
    steps: list
    epochs: list
    ledger: CostLedger
    worker_count: int
    model_dim: int
    final_steps: int
    final_epochs: int
    final_bytes: int
    sync_count: int
    reached_target: bool
    final_test_accuracy: float
    final_mean_params: ParamVector


# --- the training loop ------------------------------------------------------

@dataclass
class _Worker:
    model: Model
    opt: OptimizerState
    sampler: ShardSampler


def _load_datasets(config: RunConfig) -> tuple[Dataset, Dataset]:
    ds = config.dataset
    if isinstance(ds, BlobsSpec):
        train_seed = ds.seed if ds.seed is not None \
            else derive_seed(config.seed, _SEED_BLOBS_TRAIN)
        test_seed = ds.seed + 1 if ds.seed is not None \
            else derive_seed(config.seed, _SEED_BLOBS_TEST)
        train = make_blobs(ds.n, ds.p, ds.num_classes, train_seed)
        test = make_blobs(ds.test_n, ds.p, ds.num_classes, test_seed)
        return train, test
    if isinstance(ds, IdxSpec):
        train = load_idx(ds.train_images, ds.train_labels)
        test = load_idx(ds.test_images, ds.test_labels)
        classes = max(train.num_classes, test.num_classes)
        train.num_classes = classes
        test.num_classes = classes
        return train, test
    raise TypeError(f"unknown dataset spec {ds!r}")


def run(config: RunConfig) -> RunReport:
    """Execute one training run and report metrics and costs.

    Per step: every worker samples a batch and optimizes, the exact
    variance is audited if asked, and then the strategy's step hook
    decides what is exchanged.  The hook sends every payload through
    `allreduce_average`, which charges the ledger, and may return a new
    common model that every worker adopts.  Test accuracy of the average
    model is evaluated once per epoch; the run stops when it reaches the
    target or after max_epochs.
    """
    k = config.workers
    if k < 1:
        raise ValueError("need at least one worker")

    train, test = _load_datasets(config)
    d = param_count(config.model_kind, train.p, train.num_classes, config.hidden)

    part = partition(train, k, config.partition_scheme,
                     derive_seed(config.seed, _SEED_PARTITION))
    model0 = init_model(config.model_kind, train.p, train.num_classes,
                        config.hidden, init_scheme=config.init_scheme,
                        seed=derive_seed(config.seed, _SEED_INIT))
    workers = [
        _Worker(model=replace(model0, params=model0.params.copy()),
                opt=config.optimizer.build(d),
                sampler=ShardSampler(part.shards[i], config.batch_size,
                                     config.seed, i))
        for i in range(k)
    ]
    steps_per_epoch = max(w.sampler.batches_per_pass for w in workers)
    hook = config.strategy.start(d, model0.params, steps_per_epoch)

    ledger = CostLedger()
    step_records: list[StepRecord] = []
    epoch_records: list[EpochRecord] = []
    t = 0
    syncs = 0
    reached = False
    test_accuracy = 0.0

    def current_params() -> list[ParamVector]:
        return [w.model.params for w in workers]

    def reduce(payloads: list, category: str):
        return allreduce_average(payloads, ledger, category)

    for epoch in range(1, config.max_epochs + 1):
        epoch_losses = []
        for _ in range(steps_per_epoch):
            t += 1
            losses = []
            for w in workers:
                batch = w.sampler.next_batch()
                loss, grad = loss_and_grad(w.model, batch, train)
                w.model = replace(
                    w.model, params=apply_gradient(w.opt, w.model.params, grad))
                losses.append(loss)
            train_loss = sum(losses) / k
            if not math.isfinite(train_loss):
                raise RunDivergedError(
                    f"non-finite training loss at step {t}")

            variance = None
            if config.audit_variance:
                variance = fda_core.variance_exact(current_params())

            h_val, common = hook(t, current_params(), reduce)
            synced = common is not None
            if synced:
                syncs += 1
                for w in workers:
                    w.model = replace(w.model, params=common.copy())
            step_records.append(StepRecord(
                step=t, synced=synced, h_value=h_val, variance=variance,
                train_loss=train_loss, bytes_cumulative=ledger.bytes_total))
            epoch_losses.append(train_loss)

        w_bar = average(current_params())  # oracle channel, not charged
        _, test_accuracy = evaluate(replace(model0, params=w_bar), test)
        epoch_records.append(EpochRecord(
            epoch=epoch, test_accuracy=test_accuracy,
            train_loss=sum(epoch_losses) / len(epoch_losses),
            bytes_total=ledger.bytes_total, bytes_state=ledger.bytes_state,
            bytes_sync=ledger.bytes_sync, steps=t, syncs=syncs))
        if test_accuracy >= config.accuracy_target:
            reached = True
            break

    return RunReport(
        steps=step_records, epochs=epoch_records, ledger=ledger,
        worker_count=k, model_dim=d, final_steps=t,
        final_epochs=len(epoch_records), final_bytes=ledger.bytes_total,
        sync_count=syncs, reached_target=reached,
        final_test_accuracy=test_accuracy,
        final_mean_params=average(current_params()))
