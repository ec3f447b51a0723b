"""Small differentiable classifiers with hand-derived gradients.

Two model kinds are supported, both producing softmax class probabilities
over flattened float64 parameter vectors:

  logistic:  W (p x C), b (C);              layout [W.ravel(), b]
  mlp:       W1 (p x h), b1 (h), ReLU,
             W2 (h x C), b2 (C);            layout [W1.ravel(), b1, W2.ravel(), b2]

Matrices are stored row-major (input-index major).  Local optimizers (SGD,
SGD with momentum, Adam, AdamW) operate on the flat vector; slot variables
live next to the step counter in OptimizerState.

Data enters either from IDX image/label files (optionally gzipped) or from a
synthetic Gaussian-cluster generator.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .vecmath import ParamVector

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MODEL_KINDS = ("logistic", "mlp")
OPTIMIZER_KINDS = ("sgd", "sgd-momentum", "adam", "adamw")
INIT_SCHEMES = ("glorot-uniform", "he-normal")


class IdxFormatError(ValueError):
    """Raised for malformed IDX files (bad magic, truncation)."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, p) float64
    labels: np.ndarray    # (n,) int64, values in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or len(self.features) < 1:
            raise ValueError("features must be a non-empty (n, p) matrix")
        if len(self.labels) != len(self.features):
            raise ValueError("feature/label count mismatch")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite feature values")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range for num_classes")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def p(self) -> int:
        return self.features.shape[1]


Batch = np.ndarray  # index array into a Dataset


@dataclass
class Model:
    kind: str
    p: int
    num_classes: int
    hidden: int
    params: ParamVector

    def __post_init__(self) -> None:
        expected = param_count(self.kind, self.p, self.num_classes, self.hidden)
        if len(self.params) != expected:
            raise ValueError(
                f"parameter length {len(self.params)} does not match layout "
                f"({expected} for {self.kind})")


def param_count(kind: str, p: int, num_classes: int, hidden: int = 0) -> int:
    if kind == "logistic":
        return p * num_classes + num_classes
    if kind == "mlp":
        return p * hidden + hidden + hidden * num_classes + num_classes
    raise ValueError(f"unknown model kind {kind!r}")


def _unpack_logistic(model: Model):
    p, c = model.p, model.num_classes
    w = model.params[:p * c].reshape(p, c)
    b = model.params[p * c:]
    return w, b


def _unpack_mlp(model: Model):
    p, c, h = model.p, model.num_classes, model.hidden
    off = 0
    w1 = model.params[off:off + p * h].reshape(p, h); off += p * h
    b1 = model.params[off:off + h]; off += h
    w2 = model.params[off:off + h * c].reshape(h, c); off += h * c
    b2 = model.params[off:]
    return w1, b1, w2, b2


def init_model(kind: str, p: int, num_classes: int, hidden: int = 0,
               init_scheme: str = "glorot-uniform", seed: int = 0) -> Model:
    """Build a model with seeded weight init; biases start at zero."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if init_scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {init_scheme!r}")
    if p < 1 or num_classes < 2 or (kind == "mlp" and hidden < 1):
        raise ValueError(f"invalid dims p={p}, C={num_classes}, h={hidden}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def init_matrix(fan_in, fan_out):
        if init_scheme == "glorot-uniform":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=(fan_in, fan_out))
        std = np.sqrt(2.0 / fan_in)
        return rng.normal(0.0, std, size=(fan_in, fan_out))

    if kind == "logistic":
        w = init_matrix(p, num_classes)
        params = np.concatenate([w.ravel(), np.zeros(num_classes)])
    else:
        w1 = init_matrix(p, hidden)
        w2 = init_matrix(hidden, num_classes)
        params = np.concatenate([
            w1.ravel(), np.zeros(hidden), w2.ravel(), np.zeros(num_classes)])
    return Model(kind=kind, p=p, num_classes=num_classes, hidden=hidden,
                 params=params)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Class probabilities, one simplex row per sample."""
    if model.kind == "logistic":
        w, b = _unpack_logistic(model)
        return _softmax(x @ w + b)
    w1, b1, w2, b2 = _unpack_mlp(model)
    a1 = np.maximum(x @ w1 + b1, 0.0)
    return _softmax(a1 @ w2 + b2)


def loss_and_grad(model: Model, batch: Batch, data: Dataset) -> tuple[float, ParamVector]:
    """Mean cross-entropy over the batch and its exact parameter gradient."""
    x = data.features[batch]
    y = data.labels[batch]
    nb = len(batch)
    if model.kind == "logistic":
        w, b = _unpack_logistic(model)
        logits = x @ w + b
        logp = _log_softmax(logits)
        loss = -float(logp[np.arange(nb), y].mean())
        dz = np.exp(logp)
        dz[np.arange(nb), y] -= 1.0
        dz /= nb
        grad = np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
        return loss, grad
    w1, b1, w2, b2 = _unpack_mlp(model)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ w2 + b2
    logp = _log_softmax(logits)
    loss = -float(logp[np.arange(nb), y].mean())
    dz2 = np.exp(logp)
    dz2[np.arange(nb), y] -= 1.0
    dz2 /= nb
    da1 = dz2 @ w2.T
    dz1 = da1 * (z1 > 0.0)
    grad = np.concatenate([
        (x.T @ dz1).ravel(), dz1.sum(axis=0),
        (a1.T @ dz2).ravel(), dz2.sum(axis=0)])
    return loss, grad


def evaluate(model: Model, data: Dataset) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over the whole dataset.

    Argmax ties break to the lowest class index.
    """
    logp = None
    if model.kind == "logistic":
        w, b = _unpack_logistic(model)
        logp = _log_softmax(data.features @ w + b)
    else:
        w1, b1, w2, b2 = _unpack_mlp(model)
        a1 = np.maximum(data.features @ w1 + b1, 0.0)
        logp = _log_softmax(a1 @ w2 + b2)
    n = data.n
    loss = -float(logp[np.arange(n), data.labels].mean())
    accuracy = float((logp.argmax(axis=1) == data.labels).mean())
    return loss, accuracy


@dataclass
class OptimizerState:
    kind: str
    lr: float
    momentum: float = 0.0
    nesterov: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    slots: dict = field(default_factory=dict)


def make_optimizer(kind: str, d: int, lr: float, *, momentum: float = 0.0,
                   nesterov: bool = False, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8,
                   weight_decay: float = 0.0) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    slots = {}
    if kind == "sgd-momentum":
        slots["velocity"] = np.zeros(d)
    elif kind in ("adam", "adamw"):
        slots["m"] = np.zeros(d)
        slots["v"] = np.zeros(d)
    return OptimizerState(kind=kind, lr=lr, momentum=momentum,
                          nesterov=nesterov, beta1=beta1, beta2=beta2,
                          eps=eps, weight_decay=weight_decay, slots=slots)


def apply_gradient(opt: OptimizerState, params: ParamVector,
                   grad: ParamVector) -> ParamVector:
    """One optimizer update; advances the step counter and slot vectors.

    Momentum follows the common v <- mu*v + g recurrence, with the Nesterov
    flavor stepping along g + mu*v.  Adam applies bias correction; AdamW adds
    decoupled decay lr*wd*w on top of the Adam step.
    """
    opt.step += 1
    if opt.kind == "sgd":
        return params - opt.lr * grad
    if opt.kind == "sgd-momentum":
        vel = opt.slots["velocity"]
        vel *= opt.momentum
        vel += grad
        update = grad + opt.momentum * vel if opt.nesterov else vel
        return params - opt.lr * update
    m, v = opt.slots["m"], opt.slots["v"]
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grad
    v *= opt.beta2
    v += (1.0 - opt.beta2) * grad * grad
    m_hat = m / (1.0 - opt.beta1 ** opt.step)
    v_hat = v / (1.0 - opt.beta2 ** opt.step)
    new = params - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    if opt.kind == "adamw":
        new = new - opt.lr * opt.weight_decay * params
    return new


class ShardSampler:
    """Sequential mini-batches over one worker's shard.

    The shard order is reshuffled at the start of every local pass with a
    seed derived from (run seed, worker id, pass index); a trailing partial
    batch is dropped.
    """

    _STREAM_TAG = 3

    def __init__(self, shard: np.ndarray, batch_size: int, run_seed: int,
                 worker_id: int):
        if batch_size < 1 or batch_size > len(shard):
            raise ValueError(
                f"batch size {batch_size} invalid for shard of {len(shard)}")
        self.shard = np.asarray(shard)
        self.batch_size = batch_size
        self.run_seed = run_seed
        self.worker_id = worker_id
        self.epoch = 0
        self._pos = 0
        self._order = self._shuffled()

    def _shuffled(self) -> np.ndarray:
        seq = np.random.SeedSequence(
            (self.run_seed, self._STREAM_TAG, self.worker_id, self.epoch))
        return np.random.default_rng(seq).permutation(self.shard)

    @property
    def batches_per_pass(self) -> int:
        return len(self.shard) // self.batch_size

    def next_batch(self) -> Batch:
        if self._pos + self.batch_size > len(self._order):
            self.epoch += 1
            self._order = self._shuffled()
            self._pos = 0
        batch = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return batch


def _idx_header(f, path: str, expected_magic: int, what: str) -> tuple:
    """Check an open IDX file's magic number and return its dimensions."""
    raw = f.read(4)
    if len(raw) < 4:
        raise IdxFormatError(f"{what} file {path} is truncated")
    magic = struct.unpack(">I", raw)[0]
    if magic != expected_magic:
        raise IdxFormatError(
            f"{what} file {path} has magic 0x{magic:08x}, "
            f"expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    raw = f.read(4 * ndim)
    if len(raw) < 4 * ndim:
        raise IdxFormatError(f"{what} file {path} is truncated")
    return struct.unpack(f">{ndim}I", raw)


def _open_idx(path: str):
    return (gzip.open if str(path).endswith(".gz") else open)(path, "rb")


def idx_shape(path: str, expected_magic: int, what: str) -> tuple:
    """Dimensions of an IDX file, read from its header alone."""
    with _open_idx(path) as f:
        return _idx_header(f, path, expected_magic, what)


def read_idx(path: str, expected_magic: int, what: str) -> np.ndarray:
    """The uint8 contents of an IDX file, shaped by its header."""
    with _open_idx(path) as f:
        dims = _idx_header(f, path, expected_magic, what)
        body = np.frombuffer(f.read(), dtype=np.uint8)
    if len(body) != math.prod(dims):
        raise IdxFormatError(f"{what} file {path}: expected "
                             f"{math.prod(dims)} bytes, found {len(body)}")
    return body.reshape(dims)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels are scaled into [0, 1]."""
    images = read_idx(images_path, IDX_IMAGES_MAGIC, "images")
    labels = read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} does not match "
            f"label count {labels.shape[0]}")
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    return Dataset(features=features, labels=labels,
                   num_classes=int(labels.max()) + 1)


def make_blobs(n: int, p: int, num_classes: int, seed: int) -> Dataset:
    """Synthetic Gaussian clusters with unit-spaced means.

    Class c is N(c * ones(p), I); labels cycle 0..C-1 so classes stay
    balanced.  Deterministic per seed.
    """
    if n < 1 or p < 1 or num_classes < 2:
        raise ValueError(f"invalid blob dims n={n}, p={p}, C={num_classes}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = np.arange(n, dtype=np.int64) % num_classes
    features = labels[:, None] + rng.standard_normal((n, p))
    return Dataset(features=features, labels=labels, num_classes=num_classes)
