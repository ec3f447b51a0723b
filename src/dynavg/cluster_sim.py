"""Deterministic K-worker training simulator with communication accounting.

Workers hold private models over disjoint shards of one dataset.  Every
step each worker optimizes on a local mini-batch; depending on the
strategy, small monitoring states are averaged (and charged to the cost
ledger) and a full model average may follow.  All reductions happen in
ascending worker order, every random choice derives from the run seed, and
two runs with the same config produce identical reports.

Transmitted payloads are charged at 4 bytes per real entry (the wire cost
model), independent of the float64 arithmetic used internally.  Each
AllReduce event costs K times one worker's payload: every worker ships it
once.  Exact-variance audits and per-epoch evaluation read worker models
through an oracle channel that is never charged.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field, fields
from typing import ClassVar, Optional

import numpy as np

from . import fda_core
from .fda_core import LocalState, SyncStrategy
from .learner import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    INIT_SCHEMES,
    MODEL_KINDS,
    Dataset,
    Model,
    OptimizerSpec,
    ShardSampler,
    activation_count,
    apply_gradient,
    evaluate,
    idx_shape,
    init_model,
    load_idx,
    loss_and_grad,
    make_blobs,
    param_count,
    read_idx,
)
from .schema import Node, ensure
from .vecmath import ParamVector, average, ordered_mean

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

class PartitionScheme(Node):
    """A frozen partition config: it validates itself, maps to and from its
    YAML `partition` node (`scheme` names it, `iid` when absent) and splits
    the data."""

    tag = "scheme"
    scheme: ClassVar[str] = "iid"

    def check(self, workers: int, classes: Optional[int]) -> None:
        """Reject a scheme that the run's workers or its dataset's class
        count (None when unknown before loading) cannot meet."""

    def split(self, labels, k: int, rng) -> list[np.ndarray]:
        """K index arrays into `labels` (1 <= K <= n), drawn from `rng`."""
        raise NotImplementedError


@dataclass(frozen=True)
class Iid(PartitionScheme):
    """Deals a seeded shuffle round-robin."""

    scheme: ClassVar[str] = "iid"

    def split(self, labels, k, rng):
        perm = rng.permutation(len(labels))
        return [perm[i::k] for i in range(k)]


@dataclass(frozen=True)
class NonIidFraction(PartitionScheme):
    """Sorts a random `percent`% subset by label and hands each worker one
    contiguous run of it, then tops shards up from the shuffled rest."""

    percent: float
    scheme: ClassVar[str] = "noniid-fraction"

    def __post_init__(self) -> None:
        ensure(0.0 <= self.percent <= 100.0,
               f"fraction {self.percent} not in [0, 100]")

    def split(self, labels, k, rng):
        n = len(labels)
        n_sorted = round(n * self.percent / 100.0)
        perm = rng.permutation(n)
        chosen, rest = perm[:n_sorted], perm[n_sorted:]
        by_label = chosen[np.argsort(labels[chosen], kind="stable")]
        runs = np.split(by_label, np.cumsum(_target_sizes(n_sorted, k))[:-1])
        return _top_up(runs, rest, _target_sizes(n, k))


@dataclass(frozen=True)
class NonIidLabel(PartitionScheme):
    """Deals every sample of `label` round-robin to the first `holders`
    workers, then tops shards up from the other samples, shuffled."""

    label: int
    holders: int = 1
    scheme: ClassVar[str] = "noniid-label"

    def __post_init__(self) -> None:
        ensure(self.holders >= 1, f"holder count {self.holders} must be >= 1")

    def check(self, workers, classes):
        ensure(self.holders <= workers, f"partition holders ({self.holders}) "
               f"exceed workers ({workers})")
        ensure(classes is None or 0 <= self.label < classes,
               f"partition label {self.label} not in [0, {classes})")

    def split(self, labels, k, rng):
        held = labels == self.label
        ensure(held.any(), f"label {self.label} not present in dataset")
        self.check(k, None)
        labelled = np.flatnonzero(held)
        shards = [labelled[i::self.holders] for i in range(self.holders)]
        targets = _target_sizes(len(labels), k)
        ensure(all(len(s) <= t for s, t in zip(shards, targets)),
               f"{self.holders} balanced holder shard(s) cannot absorb the "
               f"{len(labelled)} samples of label {self.label}")
        rest = rng.permutation(np.flatnonzero(~held))
        return _top_up(shards + [labelled[:0]] * (k - self.holders), rest,
                       targets)


def _target_sizes(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + 1 if i < rem else base for i in range(k)]


def _top_up(shards: list, rest: np.ndarray, targets: list) -> list:
    """Fill each shard up to its target size from `rest`, in order."""
    ends = np.cumsum([t - len(s) for s, t in zip(shards, targets)])
    return [np.concatenate([s, r])
            for s, r in zip(shards, np.split(rest, ends[:-1]))]


def partition(data: Dataset, k: int, scheme: PartitionScheme,
              seed: int) -> list[np.ndarray]:
    """Split the dataset into K index arrays of near-equal sizes (they
    differ by <= 1), disjoint and covering it, by the scheme's rule."""
    ensure(1 <= k <= data.n, f"need 1 to {data.n} workers, not {k}")
    return scheme.split(data.labels, k,
                        np.random.default_rng(np.random.SeedSequence(seed)))


# --- communication cost -----------------------------------------------------

@dataclass
class CostLedger:
    bytes_state: int = 0
    bytes_sync: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_state + self.bytes_sync


def allreduce_average(payload, ledger: CostLedger, category: str):
    """Average one payload per worker; charge K times one worker's entries.

    A "model-sync" payload is the rows of a (K, d) matrix, averaged in
    ascending worker order; a "state" payload is one LocalState of K
    workers, which reports its own entry count and, already holding their
    mean summary, is returned as it is.
    """
    if category == "model-sync" and isinstance(payload, np.ndarray):
        mean = average(payload)  # raises, unbilled, unless (K, d) with K >= 1
        ledger.bytes_sync += WIRE_BYTES_PER_ENTRY * payload.size
        return mean
    if category == "state" and isinstance(payload, LocalState):
        ledger.bytes_state += (WIRE_BYTES_PER_ENTRY * payload.workers
                               * payload.entries)
        return payload
    raise ValueError(
        f"cannot reduce a {type(payload).__name__} as {category!r}")


# --- run configuration ------------------------------------------------------

class DatasetSpec(Node):
    """A frozen dataset config, named by its `kind`: `shape()` gives the
    run's (p, C) and `load(run_seed)` the (train, test) splits."""

    tag = "kind"
    kind: ClassVar[str]


@dataclass(frozen=True)
class BlobsSpec(DatasetSpec):
    """Gaussian blobs (`learner.make_blobs`): n training and test_n test
    samples of p features in num_classes classes."""

    n: int
    p: int
    num_classes: int
    test_n: int = 1000
    seed: Optional[int] = None  # derived from the run seed when omitted
    kind: ClassVar[str] = "blobs"
    node_keys: ClassVar[dict] = {"num_classes": "classes"}

    def __post_init__(self) -> None:
        # make_blobs' rule, checked where the config is read.
        for key, value, low in (("n", self.n, 1), ("p", self.p, 1),
                                ("classes", self.num_classes, 2),
                                ("test_n", self.test_n, 1),
                                ("seed", self.seed or 0, 0)):
            ensure(value >= low, f"blobs {key} must be >= {low}, not {value}")

    def shape(self) -> tuple[int, int]:
        """(p, C): feature dimension and class count."""
        return self.p, self.num_classes

    def load(self, run_seed: int) -> tuple[Dataset, Dataset]:
        """The (train, test) splits."""
        if self.seed is None:
            seeds = (derive_seed(run_seed, _SEED_BLOBS_TRAIN),
                     derive_seed(run_seed, _SEED_BLOBS_TEST))
        else:
            seeds = (self.seed, self.seed + 1)
        return (make_blobs(self.n, self.p, self.num_classes, seeds[0]),
                make_blobs(self.test_n, self.p, self.num_classes, seeds[1]))


@dataclass(frozen=True)
class IdxSpec(DatasetSpec):
    """IDX image/label files, optionally gzipped.  Both splits share one
    class count: one more than the largest label of either."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    kind: ClassVar[str] = "idx"
    num_classes: ClassVar[Optional[int]] = None  # known once labels are read

    def __post_init__(self) -> None:
        for path in astuple(self):
            ensure(os.path.exists(path), f"dataset file not found: {path}")

    def shape(self) -> tuple[int, int]:
        """(p, C), from the image header and the label files."""
        dims = idx_shape(self.train_images, IDX_IMAGES_MAGIC, "images")
        labels = [read_idx(path, IDX_LABELS_MAGIC, "labels")
                  for path in (self.train_labels, self.test_labels)]
        return math.prod(dims[1:]), 1 + max(int(y.max()) for y in labels)

    def load(self, run_seed: int) -> tuple[Dataset, Dataset]:
        """The (train, test) splits; the run seed is not used."""
        train = load_idx(self.train_images, self.train_labels)
        test = load_idx(self.test_images, self.test_labels)
        train.num_classes = test.num_classes = max(train.num_classes,
                                                   test.num_classes)
        return train, test


@dataclass(frozen=True)
class RunConfig(Node):
    """One run; frozen, so it validates itself whenever it is built
    (`dataclasses.replace` included)."""

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
    node_keys: ClassVar[dict] = {
        "model_kind": "model.kind", "hidden": "model.hidden",
        "init_scheme": "model.init", "partition_scheme": "partition",
        "metrics_csv": "output.metrics_csv",
        "events_jsonl": "output.events_jsonl"}

    def __post_init__(self) -> None:
        for name in ("workers", "batch_size", "max_epochs"):
            ensure(getattr(self, name) >= 1, f"{name} must be >= 1")
        ensure(self.seed >= 0, f"seed must be >= 0, not {self.seed}")
        ensure(0 <= self.accuracy_target <= 1,
               f"accuracy_target {self.accuracy_target} not in [0, 1]")
        ensure(self.model_kind in MODEL_KINDS,
               f"unknown model kind {self.model_kind!r}")
        hidden_layers = MODEL_KINDS[self.model_kind]
        ensure(not hidden_layers or self.hidden >= 1,
               f"{self.model_kind} model needs hidden >= 1")
        ensure(hidden_layers or self.hidden == 0,
               f"{self.model_kind} model has no hidden layer: hidden must "
               f"be 0, not {self.hidden}")
        ensure(self.init_scheme in INIT_SCHEMES,
               f"unknown init scheme {self.init_scheme!r}")
        self.partition_scheme.check(self.workers, self.dataset.num_classes)
        if self.metrics_csv and self.events_jsonl:
            ensure(os.path.realpath(self.metrics_csv)
                   != os.path.realpath(self.events_jsonl),
                   f"metrics_csv and events_jsonl name one file: "
                   f"{self.events_jsonl}")


# --- run reporting ----------------------------------------------------------

@dataclass
class StepRecord:
    step: int
    synced: bool
    h_value: Optional[float]
    variance: Optional[float]  # exact, pre-sync; only under audit
    train_loss: float
    bytes_cumulative: int


# StepLog flag bits, one flags byte per step.
_SYNCED, _HAS_H, _HAS_VARIANCE = 1, 2, 4


class StepLog:
    """The per-step records of one run, held as typed `array` columns.

    Row i is step i + 1.  One flags byte per row holds `synced` and whether
    `h_value` and `variance` are set; an unset value is stored as 0.0 and
    read back as None, so None, NaN, ±inf and -0.0 all round-trip.  That is
    33 bytes per step; a `StepRecord` with its boxed scalars takes about
    250, so rows are built only while iterating, from the columns.
    """

    def __init__(self) -> None:
        self._flags = array("B")
        self._h = array("d")
        self._variance = array("d")
        self._loss = array("d")
        self._bytes = array("q")

    def append(self, synced: bool, h_value: Optional[float],
               variance: Optional[float], train_loss: float,
               bytes_cumulative: int) -> None:
        """Record the next step."""
        self._flags.append(synced | (h_value is not None) << 1
                           | (variance is not None) << 2)
        self._h.append(0.0 if h_value is None else h_value)
        self._variance.append(0.0 if variance is None else variance)
        self._loss.append(train_loss)
        self._bytes.append(bytes_cumulative)

    def __len__(self) -> int:
        return len(self._flags)

    def __iter__(self) -> Iterator[StepRecord]:
        """The rows, in step order."""
        return map(StepRecord, *(self.column(f.name)
                                 for f in fields(StepRecord)))

    def column(self, name: str) -> Iterator:
        """The `StepRecord` field `name` of every row, in step order,
        without building the rows."""
        if name == "step":
            return iter(range(1, len(self) + 1))
        if name == "synced":
            return (bool(f & _SYNCED) for f in self._flags)
        if name == "h_value":
            return (h if f & _HAS_H else None
                    for f, h in zip(self._flags, self._h))
        if name == "variance":
            return (v if f & _HAS_VARIANCE else None
                    for f, v in zip(self._flags, self._variance))
        if name == "train_loss":
            return iter(self._loss)
        if name == "bytes_cumulative":
            return iter(self._bytes)
        raise KeyError(f"no StepRecord field {name!r}")


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
    """One run's records; its totals are read from the last epoch record."""

    steps: StepLog
    epochs: list[EpochRecord]
    ledger: CostLedger
    worker_count: int
    reached_target: bool
    final_mean_params: ParamVector

    @property
    def final_steps(self) -> int:
        return self.epochs[-1].steps

    @property
    def final_bytes(self) -> int:
        return self.epochs[-1].bytes_total

    @property
    def sync_count(self) -> int:
        return self.epochs[-1].syncs


# --- the training loop ------------------------------------------------------

def run(config: RunConfig) -> RunReport:
    """Execute one training run and report metrics and costs.

    The K worker models are the rows of one (K, d) float64 matrix, held as
    the params of a single `Model`, with the optimizer slots shaped (K, d)
    alike.  One flat float64 workspace of max(K*d, d + test activations)
    entries is allocated once; its leading (K, d) view is the gradient
    buffer.  Per step, in lock-step: one `ShardSampler` call draws the
    (K, b) batch, one row per worker; one `loss_and_grad` call computes
    all K gradients into the gradient buffer; one `apply_gradient` call
    updates the matrix in place; the exact variance is audited if asked;
    and the strategy's step hook, called as hook(t, matrix, reduce, grad)
    with the spent gradient buffer as its scratch, builds all K local
    states at once and decides what is exchanged.  The hook sends every
    payload through `allreduce_average`, which charges the ledger K times
    the per-worker payload, and may return a new common model, which is
    copied into every row.  Once per epoch, with the gradient spent, the
    workers' average model is written into the workspace's first d
    entries and evaluated on the test set, each layer's activations going
    into the entries after it; the run stops when test accuracy reaches
    the target or after max_epochs.  The initial model is held only by the
    strategy, for as long as it keeps it.
    """
    k = config.workers
    train, test = config.dataset.load(config.seed)
    layout = (config.model_kind, train.p, train.num_classes, config.hidden)
    d = param_count(*layout)

    shards = partition(train, k, config.partition_scheme,
                       derive_seed(config.seed, _SEED_PARTITION))
    sampler = ShardSampler(shards, config.batch_size, config.seed)
    # The strategy holds the initial model as long as it needs it; every
    # worker starts from a copy, one row of the workers' matrix.
    workers = init_model(*layout, init_scheme=config.init_scheme,
                         seed=derive_seed(config.seed, _SEED_INIT))
    hook = config.strategy.start(d, workers.params, sampler.batches_per_pass)
    workers.params = np.tile(workers.params, (k, 1))
    opt = config.optimizer.build((k, d))
    # The run's one workspace.  Its leading (K, d) view is the gradient
    # buffer; at epoch end, with the gradient spent, it holds the workers'
    # mean model and the test set's activations instead.
    work = np.empty(max(k * d, d + activation_count(*layout, test.n)))
    grad = work[:k * d].reshape(k, d)
    mean_model = Model(*layout, work[:d])

    ledger = CostLedger()
    step_records = StepLog()
    epoch_records: list[EpochRecord] = []
    t = 0
    syncs = 0

    def reduce(payload, category: str):
        return allreduce_average(payload, ledger, category)

    for epoch in range(1, config.max_epochs + 1):
        epoch_losses = []
        for _ in range(sampler.batches_per_pass):
            t += 1
            losses, _ = loss_and_grad(workers, sampler.next_batch(), train,
                                      out=grad)
            apply_gradient(opt, workers.params, grad)
            train_loss = ordered_mean(losses)
            if not math.isfinite(train_loss):
                raise RunDivergedError(
                    f"non-finite training loss at step {t}")

            # apply_gradient spent grad, and the next loss_and_grad
            # rewrites every entry: until then the audit and the hook use
            # it as scratch.
            variance = None
            if config.audit_variance:
                variance = fda_core.variance_exact(workers.params, out=grad)

            h_val, common = hook(t, workers.params, reduce, grad)
            synced = common is not None
            if synced:
                syncs += 1
                workers.params[:] = common
            step_records.append(synced, h_val, variance, train_loss,
                                ledger.bytes_total)
            epoch_losses.append(train_loss)

        # Read through the oracle channel, never charged.
        average(workers.params, out=mean_model.params)
        _, test_accuracy = evaluate(mean_model, test, work[d:])
        epoch_records.append(EpochRecord(
            epoch=epoch, test_accuracy=test_accuracy,
            train_loss=ordered_mean(epoch_losses),
            bytes_total=ledger.bytes_total, bytes_state=ledger.bytes_state,
            bytes_sync=ledger.bytes_sync, steps=t, syncs=syncs))
        if test_accuracy >= config.accuracy_target:
            break

    return RunReport(
        steps=step_records, epochs=epoch_records, ledger=ledger,
        worker_count=k, reached_target=test_accuracy >= config.accuracy_target,
        final_mean_params=average(workers.params))
