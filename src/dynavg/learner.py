"""Small differentiable classifiers with hand-derived gradients.

A model is a stack of dense layers with a ReLU between consecutive layers
and a softmax over the last layer's outputs.  Its parameters are one flat
float64 vector holding each layer's weight matrix (row-major, input-index
major) followed by its bias, layer by layer:

  logistic:  one layer p -> C;             layout [W.ravel(), b]
  mlp:       layers p -> h -> C;           layout [W1.ravel(), b1, W2.ravel(), b2]

One forward pass and one backward loop serve every kind.  A model's params
may also be a (K, d) matrix holding K models of one layout, one per row:
`loss_and_grad` then takes a (K, b) batch, one row of sample indices per
model, and runs every layer as one stacked matmul over the leading axis,
which rounds exactly as K separate calls would.  An `OptimizerSpec` (SGD,
SGD with momentum, Adam, AdamW) describes an optimizer; its `build(shape)`
gives the state that `apply_gradient` advances in place on a vector or on
all rows of a matrix at once.

Data enters either from IDX image/label files (optionally gzipped) or from a
synthetic Gaussian-cluster generator.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import vecmath
from .schema import Node, ensure
from .vecmath import ParamVector, by_columns

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# The layer-shape table: hidden layers per model kind, each `hidden` wide,
# between the p inputs and the C outputs.  The only place that says what a
# model kind is.
MODEL_KINDS = {"logistic": 0, "mlp": 1}
# The fields that each optimizer kind reads besides `lr`.
OPTIMIZER_KINDS = {"sgd": (), "sgd-momentum": ("momentum", "nesterov"),
                   "adam": ("beta1", "beta2", "eps"),
                   "adamw": ("beta1", "beta2", "eps", "weight_decay")}
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
        # NaN propagates through min and max, so both are finite exactly
        # when every entry is; unlike isfinite, they build no (n, p) array.
        if self.features.size and not (np.isfinite(self.features.min())
                                       and np.isfinite(self.features.max())):
            raise ValueError("non-finite feature values")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range for num_classes")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def p(self) -> int:
        return self.features.shape[1]


Batch = np.ndarray  # index array into a Dataset; (K, b) for K stacked models


@dataclass
class Model:
    kind: str
    p: int
    num_classes: int
    hidden: int
    params: ParamVector  # (d,), or (K, d) for K models of this layout
    _pass: Optional[_Pass] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        expected = param_count(self.kind, self.p, self.num_classes, self.hidden)
        if self.params.shape[-1] != expected:
            raise ValueError(
                f"parameter length {self.params.shape[-1]} does not match "
                f"layout ({expected} for {self.kind})")


def _layer_shapes(kind: str, p: int, num_classes: int,
                  hidden: int) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each dense layer, input layer first: the one
    check of a layout (a known kind, hidden >= 1 for a kind with a hidden
    layer and 0 for one without, p >= 1, C >= 2), else ValueError."""
    ensure(kind in MODEL_KINDS, f"unknown model kind {kind!r}")
    hidden_layers = MODEL_KINDS[kind]
    ensure(not hidden_layers or hidden >= 1, f"{kind} model needs hidden >= 1")
    ensure(hidden_layers or hidden == 0, f"{kind} model has no hidden layer: "
           f"hidden must be 0, not {hidden}")
    ensure(p >= 1 and num_classes >= 2, f"invalid dims p={p}, C={num_classes}")
    widths = [p] + [hidden] * hidden_layers + [num_classes]
    return list(zip(widths[:-1], widths[1:]))


def param_count(kind: str, p: int, num_classes: int, hidden: int = 0) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out
               in _layer_shapes(kind, p, num_classes, hidden))


def _layers(model: Model, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into a flat (..., d) array laid out like the model's
    parameters, one pair per layer; leading axes are kept."""
    lead = flat.shape[:-1]
    layers, off = [], 0
    for fan_in, fan_out in _layer_shapes(model.kind, model.p,
                                         model.num_classes, model.hidden):
        w = flat[..., off:off + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        off += fan_in * fan_out
        layers.append((w, flat[..., off:off + fan_out]))
        off += fan_out
    return layers


def init_model(kind: str, p: int, num_classes: int, hidden: int = 0,
               init_scheme: str = "glorot-uniform", seed: int = 0) -> Model:
    """Build a model with seeded weight init; biases start at zero.

    Weight matrices are drawn in layer order from one seeded stream.
    """
    shapes = _layer_shapes(kind, p, num_classes, hidden)
    if init_scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {init_scheme!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = []
    for fan_in, fan_out in shapes:
        if init_scheme == "glorot-uniform":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        parts += [w.ravel(), np.zeros(fan_out)]
    return Model(kind=kind, p=p, num_classes=num_classes, hidden=hidden,
                 params=np.concatenate(parts))


class _Pass:
    """The views a gradient pass over one params array, gradient buffer and
    batch shape reuses: (W, b) of both (biases shaped to broadcast over
    samples), the transposed weights and each sample's flat logit row.
    Over K stacked models, `block(lo, hi)` is the pass of rows lo:hi."""

    def __init__(self, model: Model, out=None, shape: tuple = ()):
        self.params, self.out, self.shape = model.params, out, shape
        self.layout = (model.kind, model.p, model.num_classes, model.hidden)
        self.layers = [(w, b[..., None, :])
                       for w, b in _layers(model, model.params)]
        self.weights_t = [np.swapaxes(w, -1, -2) for w, _ in self.layers]
        self.grads = None if out is None else _layers(model, out)
        self.rows = np.arange(math.prod(shape)).reshape(shape) * model.num_classes
        self._blocks: dict = {}

    def block(self, lo: int, hi: int) -> _Pass:
        if (lo, hi) == (0, len(self.params)):
            return self
        net = self._blocks.get((lo, hi))
        if net is None:
            net = self._blocks[lo, hi] = _Pass(
                Model(*self.layout, self.params[lo:hi]), self.out[lo:hi],
                (hi - lo, *self.shape[1:]))
        return net


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in place.  The row max, taken
    column by column, equals `z.max(axis=-1)` and costs less at small C."""
    top = np.maximum(z[..., 0], z[..., 1])
    for c in range(2, z.shape[-1]):
        np.maximum(top, z[..., c], out=top)
    z -= top[..., None]
    norm = np.add.reduce(np.exp(z), axis=-1, keepdims=True)
    z -= np.log(norm, out=norm)
    return z


def _forward(net: _Pass, x: np.ndarray,
             work: Optional[np.ndarray] = None) -> tuple[list, np.ndarray]:
    """Each layer's input, and log class probabilities of the last layer;
    x is (n, p) for one model or (K, n, p) for K stacked ones.  With a flat
    float64 `work`, each layer's output is written into its next slice
    (see `activation_count`); else each is a new array."""
    inputs, z, off = [], x, 0
    for w, b in net.layers:
        if inputs:  # the ReLU between consecutive layers
            np.maximum(z, 0.0, out=z)
        inputs.append(z)
        out = None
        if work is not None:
            shape = (*z.shape[:-1], w.shape[-1])
            size = math.prod(shape)
            ensure(off + size <= work.size, f"work of {work.size} entries "
                   f"cannot hold the {shape} layer output")
            out = work[off:off + size].reshape(shape)
            off += size
        z = np.matmul(z, w, out=out)
        z += b
    return inputs, _log_softmax(z)


def loss_and_grad(model: Model, batch: Batch, data: Dataset,
                  out: Optional[np.ndarray] = None) -> tuple:
    """Mean cross-entropy over the batch and its exact parameter gradient.

    For one model: a float and a (d,) gradient.  For a (K, d) params
    matrix and a (K, b) batch: a (K,) array of losses and the (K, d)
    gradient matrix, its row blocks computed in `vecmath.split`'s lanes.
    The gradient is written into `out` (a new array when None), layer by
    layer through views, with no concatenation.  The views come from a
    `_Pass` per row block, kept on the model until `model.params`, `out`
    or the batch shape changes: built once per run.
    """
    if out is None:
        out = np.empty(model.params.shape)
    net = model._pass
    if not (net and net.params is model.params and net.out is out
            and net.shape == batch.shape):
        net = model._pass = _Pass(model, out, batch.shape)
    if model.params.ndim == 1:
        return float(_backprop(net, batch, data)), out
    if model.params.size < vecmath.LANE_MIN_ENTRIES:  # one lane
        return _backprop(net, batch, data), out
    losses = np.empty(len(batch))

    def rows(lo, hi):
        losses[lo:hi] = _backprop(net.block(lo, hi), batch[lo:hi], data)

    vecmath.split(rows, len(batch), model.params.size)
    return losses, out


def _backprop(net: _Pass, batch: Batch, data: Dataset) -> np.ndarray:
    """The batch's mean loss per model; the gradient goes into net.out."""
    x = data.features.take(batch, axis=0)
    y = data.labels.take(batch)
    nb = y.shape[-1]
    inputs, logp = _forward(net, x)
    pick = net.rows + y  # each sample's true-class entry in logp, flattened
    loss = -(np.add.reduce(logp.take(pick), axis=-1) / nb)
    dz = np.exp(logp, out=logp)
    dz.reshape(-1)[pick] -= 1.0
    dz /= nb
    for i in reversed(range(len(inputs))):
        w_grad, b_grad = net.grads[i]
        np.add.reduce(dz, axis=-2, out=b_grad)
        np.matmul(inputs[i].swapaxes(-1, -2), dz, out=w_grad)
        if i:  # through the ReLU: its input was positive iff its output is
            dz = np.matmul(dz, net.weights_t[i])
            dz *= inputs[i] > 0.0
    return loss


def activation_count(kind: str, p: int, num_classes: int, hidden: int,
                     n: int) -> int:
    """Entries of every layer's output over n samples: the size of the
    `work` that `evaluate` needs for a dataset of n samples."""
    return n * sum(fan_out for _, fan_out
                   in _layer_shapes(kind, p, num_classes, hidden))


def evaluate(model: Model, data: Dataset,
             work: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over the whole dataset.

    Each layer's output over the dataset goes into the next slice of the
    flat float64 `work` when given (`activation_count` entries; it must
    not overlap the params), so the call makes no array of the
    activations' size; without it each is a new array.  Argmax ties break
    to the lowest class index.
    """
    _, logp = _forward(_Pass(model), data.features, work)
    loss = -float(logp[np.arange(data.n), data.labels].mean())
    accuracy = float((logp.argmax(axis=1) == data.labels).mean())
    return loss, accuracy


@dataclass(frozen=True)
class OptimizerSpec(Node):
    """A local or server optimizer's kind and hyperparameters."""

    kind: str = "sgd"
    lr: float = 0.01
    momentum: float = 0.9
    nesterov: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        ensure(self.kind in OPTIMIZER_KINDS,
               f"unknown optimizer kind {self.kind!r}")
        read = ("kind", "lr", *OPTIMIZER_KINDS[self.kind])
        for f in fields(self):
            ensure(f.name in read or getattr(self, f.name) == f.default,
                   f"{self.kind} optimizer does not read {f.name}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            ensure(math.isfinite(value) and value >= 0,
                   f"optimizer {name} must be finite and >= 0, not {value}")
        for name in ("momentum", "beta1", "beta2"):
            value = getattr(self, name)
            ensure(0 <= value < 1,
                   f"optimizer {name} must be in [0, 1), not {value}")
        ensure(math.isfinite(self.eps) and self.eps > 0,
               f"optimizer eps must be finite and > 0, not {self.eps}")

    def build(self, shape) -> OptimizerState:
        """Fresh state for parameters of this shape: a length d, or
        (K, d) to advance K models' rows in lock-step."""
        slots = {}
        if self.kind == "sgd-momentum":
            slots["velocity"] = np.zeros(shape)
        elif self.kind in ("adam", "adamw"):
            slots["m"] = np.zeros(shape)
            slots["v"] = np.zeros(shape)
        return OptimizerState(spec=self, slots=slots)


@dataclass
class OptimizerState:
    spec: OptimizerSpec
    step: int = 0
    slots: dict = field(default_factory=dict)

    def update(self, params: np.ndarray, grad: np.ndarray,
               *slots: np.ndarray) -> None:
        """Update number `step` on matching blocks of params, grad and the
        slots, given in the order `OptimizerSpec.build` makes them."""
        spec, step = self.spec, self.step
        adam = spec.kind in ("adam", "adamw")
        if spec.kind == "sgd-momentum":
            vel, = slots
            vel *= spec.momentum
            vel += grad
            if spec.nesterov:
                grad += spec.momentum * vel
            else:
                grad[...] = vel
        elif adam:
            # tmp holds in turn (1-b1)*g, (1-b2)*g, the denominator and
            # AdamW's decay (lr*wd)*w, taken before params move.
            m, v = slots
            tmp = np.multiply(1.0 - spec.beta1, grad)
            m *= spec.beta1
            m += tmp
            v *= spec.beta2
            grad *= np.multiply(1.0 - spec.beta2, grad, out=tmp)
            v += grad
            np.divide(m, 1.0 - spec.beta1 ** step, out=grad)  # m_hat
        grad *= spec.lr
        if adam:
            np.divide(v, 1.0 - spec.beta2 ** step, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += spec.eps
            grad /= tmp
        if spec.kind == "adamw":
            np.multiply(spec.lr * spec.weight_decay, params, out=tmp)
        params -= grad
        if spec.kind == "adamw":
            params -= tmp


def apply_gradient(opt: OptimizerState, params: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
    """One optimizer update of `params` in place; returns `params`.

    params, grad and the slots share one shape, a vector or a (K, d)
    matrix whose rows update independently.  `grad` serves as scratch and
    is overwritten.  Momentum follows the common v <- mu*v + g recurrence,
    with the Nesterov flavor stepping along g + mu*v.  Adam applies bias
    correction; AdamW adds decoupled decay lr*wd*w on top of the Adam step.
    Each product and sum rounds as in the textbook expression
    `params - lr * update`.  Nesterov momentum and both Adam kinds
    allocate one temporary of params' shape per step; SGD and plain
    momentum allocate none.  Every entry updates alone, so column blocks
    update in `vecmath.split`'s lanes.
    """
    opt.step += 1
    by_columns(opt.update, params, grad, *opt.slots.values())
    return params


class ShardSampler:
    """One (K, b) batch per `next_batch` call, row i from worker i's shard.

    Worker i walks its shard in passes of len(shard_i) // b batches,
    dropping a trailing partial batch; it reshuffles for its pass p with
    `SeedSequence((*stream, i, p))`, where a run's `stream` is (seed, tag).
    """

    def __init__(self, shards: list, batch_size: int, stream: tuple):
        self.shards = [np.asarray(shard) for shard in shards]
        self.batch_size, self.stream = batch_size, stream
        shortest = min(map(len, self.shards), default=0)
        ensure(1 <= batch_size <= shortest,
               f"batch size {batch_size} invalid for shard of {shortest}")
        self._passes = [len(shard) // batch_size for shard in self.shards]
        self.batches_per_pass = top = max(self._passes)
        # Rows i*top on hold worker i's current pass as batches, _rows each
        # worker's current row; worker i starts a pass every _passes[i] steps.
        self._table = np.empty((len(self.shards) * top, batch_size), np.int64)
        self._rows = np.zeros(len(self.shards), np.int64)
        self._step = self._next_start = 0

    def next_batch(self) -> Batch:
        t = self._step
        self._step += 1
        self._rows += 1
        if t == self._next_start:
            b, top = self.batch_size, self.batches_per_pass
            for i, n in enumerate(self._passes):
                if t % n == 0:
                    seq = np.random.SeedSequence((*self.stream, i, t // n))
                    order = np.random.default_rng(seq).permutation(
                        self.shards[i])[:n * b]
                    self._table[i * top:i * top + n] = order.reshape(n, b)
                    self._rows[i] = i * top
            self._next_start = min(t + n - t % n for n in self._passes)
        return self._table.take(self._rows, axis=0)


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


@contextmanager
def _open_idx(path: str, what: str):
    """An open IDX file; a damaged gzip stream raises IdxFormatError."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            yield f
    except (EOFError, zlib.error) as exc:
        raise IdxFormatError(f"{what} file {path} is damaged: {exc}") from exc


def read_idx(path: str, expected_magic: int, what: str) -> np.ndarray:
    """The uint8 contents of an IDX file, shaped by its header."""
    with _open_idx(path, what) as f:
        dims = _idx_header(f, path, expected_magic, what)
        body = np.frombuffer(f.read(), dtype=np.uint8)
    if len(body) != math.prod(dims):
        raise IdxFormatError(f"{what} file {path}: expected "
                             f"{math.prod(dims)} bytes, found {len(body)}")
    return body.reshape(dims)


def idx_shape(images_paths: Sequence[str],
              labels_paths: Sequence[str]) -> tuple[int, int]:
    """(p, C) of IDX data: p from the image headers, which must agree on
    the image dimensions; C is one more than the largest label of any file."""
    dims = []
    for path in images_paths:
        with _open_idx(path, "images") as f:
            dims.append(_idx_header(f, path, IDX_IMAGES_MAGIC, "images")[1:])
    size = ["x".join(map(str, d)) for d in dims]
    for path, other in zip(images_paths, size):
        if other != size[0]:
            raise IdxFormatError(
                f"images file {path} holds {other} images, not the "
                f"{size[0]} of images file {images_paths[0]}")
    top = max(int(read_idx(path, IDX_LABELS_MAGIC, "labels").max())
              for path in labels_paths)
    return math.prod(dims[0]), top + 1


def load_idx(images_path: str, labels_path: str, num_classes: int) -> Dataset:
    """Load an IDX image/label pair; pixels are scaled into [0, 1]."""
    images = read_idx(images_path, IDX_IMAGES_MAGIC, "images")
    labels = read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} does not match "
            f"label count {labels.shape[0]}")
    features = images.reshape(images.shape[0], -1).astype(np.float64)
    features /= 255.0  # in place: no second float64 copy
    return Dataset(features=features, labels=labels.astype(np.int64),
                   num_classes=num_classes)


def make_blobs(n: int, p: int, num_classes: int, seed: int) -> Dataset:
    """Synthetic Gaussian clusters with unit-spaced means.

    Class c is N(c * ones(p), I); labels cycle 0..C-1 so classes stay
    balanced.  Deterministic per seed.
    """
    if n < 1 or p < 1 or num_classes < 2:
        raise ValueError(f"invalid blob dims n={n}, p={p}, C={num_classes}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = np.arange(n, dtype=np.int64) % num_classes
    features = rng.standard_normal((n, p))
    features += labels[:, None]  # in place: no second (n, p) temporary
    return Dataset(features=features, labels=labels, num_classes=num_classes)
