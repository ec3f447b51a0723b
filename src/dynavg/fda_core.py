"""Variance monitoring: drifts, local states, overestimators, sync policies.

The monitored quantity is the model variance across workers,

    Var = (1/K) sum_k ||w_k - w_bar||^2,

which decomposes over drifts u_k = w_k - w_sync into
mean(||u_k||^2) - ||u_bar||^2.  Each worker ships a small local state
(its squared drift norm plus a low-dimensional summary of the drift); an
H function computed from the averaged states overestimates the variance,
deterministically for the scalar-projection summary and probabilistically
for the sketch summary.  Synchronization fires when H exceeds the
threshold.  Baseline policies (every step, fixed period, periodic server
optimization) share the same `SyncStrategy` interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import sketch as sk
from .learner import OptimizerSpec, apply_gradient
from .schema import Node, ensure
from .vecmath import (ParamVector, average, dot, norm_sq, ordered_mean,
                      ordered_sum)

Drift = ParamVector

# Unit direction used by the scalar-projection summary; None until two
# synchronization points exist (initialization counts as the first).
Xi = Optional[ParamVector]

XI_DEGENERATE_NORM = 1e-12


@dataclass
class LocalState:
    """K workers' pairs (||u_k||^2, summary), mergeable by averaging.

    `drift_norm_sq` is a (K,) array; a (d,) drift is one worker.  `summary`
    is the workers' mean summary: a 0-d mean projection <xi, u>, or the
    (l, m) rows of one sketch of the mean drift, which by linearity is the
    mean of the K sketches.  Every worker still ships its own summary.
    The state is thus its own average: the AllReduce bills it and the H
    functions read it as it is.
    """

    drift_norm_sq: np.ndarray
    summary: np.ndarray

    @property
    def workers(self) -> int:
        return len(self.drift_norm_sq)

    @property
    def entries(self) -> int:
        """Wire entries per worker: its norm and its summary."""
        return 1 + self.summary.size

    @property
    def mean_drift_norm_sq(self) -> float:
        """The workers' mean ||u_k||^2, added in ascending worker order."""
        return ordered_mean(self.drift_norm_sq)


def variance_exact(models, out: Optional[np.ndarray] = None) -> float:
    """Mean squared distance of K vectors (a list or the rows of a (K, d)
    matrix) from their average; the K squared norms add in ascending
    order.  The centred rows are written into `out` (K, d) when given."""
    models = np.asarray(models, dtype=np.float64)
    if len(models) == 0:
        raise ValueError("variance of an empty list")
    centred = np.subtract(models, average(models), out=out)
    return ordered_mean(norm_sq(centred))


def variance_from_drifts(mean_drift_norm_sq: float,
                         mean_drift: ParamVector) -> float:
    """Variance via the drift decomposition: mean||u||^2 - ||u_bar||^2."""
    return mean_drift_norm_sq - norm_sq(mean_drift)


def make_local_state_sketch(u: Drift, t: sk.SketchTransform) -> LocalState:
    """The state of one drift (d,), or of the rows of a (K, d) matrix: their
    K squared norms and one sketch of their mean, standing for the mean of
    the K sketches that the workers send.

    `u` serves as scratch: once the norms are taken, the mean drift is
    averaged into its first row, so no (d,) array is made.  A (d,) drift
    keeps its values (it is divided by 1)."""
    u = np.atleast_2d(u)
    ensure(len(u) > 0, "local state of no workers")
    norms = norm_sq(u)
    mean = average(u, out=u[0])
    return LocalState(drift_norm_sq=norms, summary=sk.apply(t, mean).rows)


def make_local_state_linear(u: Drift, xi: Xi) -> LocalState:
    """The state of one drift (d,), or of the rows of a (K, d) matrix: their
    K squared norms and their mean projection on xi (0.0 without xi)."""
    u = np.atleast_2d(u)
    ensure(len(u) > 0, "local state of no workers")
    mean = 0.0 if xi is None else ordered_mean(dot(u, xi))
    return LocalState(drift_norm_sq=norm_sq(u), summary=np.array(mean))


def average_states(states: list) -> LocalState:
    """K one-worker states of one kind stacked into one: their norms in
    worker order and the mean of their summaries, added in ascending order.
    The per-worker reference for a state built from a (K, d) matrix."""
    ensure(len({s.summary.shape for s in states}) == 1
           and {s.workers for s in states} == {1},
           "can only average a list of one-worker states of one kind")
    return LocalState(
        drift_norm_sq=np.concatenate([s.drift_norm_sq for s in states]),
        summary=ordered_sum(np.stack([s.summary for s in states]))
        / len(states))


def h_sketch(state: LocalState, eps: float) -> float:
    """Sketch-based overestimate: mean||u||^2 - M2(mean sketch)/(1+eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    m2 = sk.m2_estimate(sk.AmsSketch(rows=state.summary))
    return state.mean_drift_norm_sq - m2 / (1.0 + eps)


def h_linear(state: LocalState) -> float:
    """Projection-based overestimate: mean||u||^2 - (mean <xi,u>)^2."""
    return state.mean_drift_norm_sq - float(state.summary) ** 2


def compute_xi(w_sync_now: ParamVector, w_sync_prev: ParamVector) -> Xi:
    """Unit vector along the last synchronization displacement.

    Returns None when the displacement is numerically zero.
    """
    diff = w_sync_now - w_sync_prev
    norm = float(np.sqrt(norm_sq(diff)))
    if norm < XI_DEGENERATE_NORM:
        return None
    return diff / norm


# --- synchronization strategies -------------------------------------------

# reduce(payload, category) is the charged AllReduce: it bills the ledger K
# times one worker's entries and returns the average of one payload per
# worker.  Under "model-sync" that is the mean row of a (K, d) matrix; under
# "state" the payload is one LocalState of K workers, which already holds
# their mean summary, and comes back as it is.
Reduce = Callable[[object, str], object]
# hook(t, (K, d) worker params, reduce, (K, d) scratch) -> (H or None, new
# common model or None).  The hook reads the params and must not keep or
# modify them; it may overwrite the scratch matrix, whose entries mean
# nothing, during its own call only.
StepHook = Callable[[int, np.ndarray, Reduce, np.ndarray],
                    tuple[Optional[float], Optional[ParamVector]]]


def _every_step(t: int, params: np.ndarray, reduce: Reduce,
                scratch: np.ndarray):
    return None, reduce(params, "model-sync")


def _variance_monitor(theta, w_sync, make_state, h_of,
                      reads_xi: bool) -> StepHook:
    """Exchange local states every step; average the models on strict
    H > theta (ties keep training locally).  The drifts are built in the
    scratch matrix.  xi is recomputed on a sync only when `make_state`
    reads it."""
    xi: Xi = None

    def hook(t: int, params: np.ndarray, reduce: Reduce,
             scratch: np.ndarray):
        nonlocal xi, w_sync
        drift = np.subtract(params, w_sync, out=scratch)
        h = h_of(reduce(make_state(drift, xi), "state"))
        if not h > theta:
            return h, None
        mean = reduce(params, "model-sync")
        if reads_xi:
            xi = compute_xi(mean, w_sync)
        w_sync = mean
        return h, mean

    return hook


class SyncStrategy(Node):
    """A synchronization policy: a frozen config that validates itself,
    maps to and from its YAML `strategy` node (`kind` names it) and
    builds a fresh step hook, holding the run's monitor state, per run.
    A zero threshold degenerates to the every-step hook: monitoring a
    foregone decision would only add cost."""

    tag = "kind"
    kind: ClassVar[str]

    def start(self, d: int, w0: ParamVector, steps_per_epoch: int) -> StepHook:
        raise NotImplementedError


@dataclass(frozen=True)
class SketchFda(SyncStrategy):
    theta: float
    rows: int = 5
    cols: int = 250
    seed: int = 0
    kind: ClassVar[str] = "sketch-fda"
    node_keys: ClassVar[dict] = {"rows": "sketch.rows", "cols": "sketch.cols",
                                 "seed": "sketch.seed"}

    def __post_init__(self) -> None:
        ensure(self.theta >= 0, "theta must be >= 0")
        ensure(self.rows >= 1 and self.cols >= 1,
               "sketch dimensions must be positive")
        ensure(self.seed >= 0, f"sketch seed must be >= 0, not {self.seed}")

    @property
    def eps(self) -> float:
        return sk.relative_error(self.cols)

    def start(self, d, w0, steps_per_epoch):
        if self.theta == 0:
            return _every_step
        transform = sk.make_transform(d, self.rows, self.cols, self.seed)
        eps = self.eps
        return _variance_monitor(
            self.theta, w0, lambda u, xi: make_local_state_sketch(u, transform),
            lambda state: h_sketch(state, eps), reads_xi=False)


@dataclass(frozen=True)
class LinearFda(SyncStrategy):
    theta: float
    kind: ClassVar[str] = "linear-fda"

    def __post_init__(self) -> None:
        ensure(self.theta >= 0, "theta must be >= 0")

    def start(self, d, w0, steps_per_epoch):
        if self.theta == 0:
            return _every_step
        return _variance_monitor(self.theta, w0, make_local_state_linear,
                                 h_linear, reads_xi=True)


@dataclass(frozen=True)
class Synchronous(SyncStrategy):
    kind: ClassVar[str] = "synchronous"

    def start(self, d, w0, steps_per_epoch):
        return _every_step


@dataclass(frozen=True)
class LocalSgd(SyncStrategy):
    tau: int
    kind: ClassVar[str] = "local-sgd"

    def __post_init__(self) -> None:
        ensure(self.tau >= 1, "tau must be >= 1")

    def start(self, d, w0, steps_per_epoch):
        def hook(t, params, reduce, scratch):
            return None, None if t % self.tau else reduce(params, "model-sync")
        return hook


@dataclass(frozen=True)
class FedOpt(SyncStrategy):
    """Periodic rounds: E local epochs, then a server-side optimizer step
    on the pseudo-gradient (the negated mean client delta).  From Python,
    `replace(FedOpt.server, kind="adam", lr=...)` keeps the default
    server's eps of 1e-7, as a `server` node does."""

    server: OptimizerSpec = OptimizerSpec(kind="sgd-momentum", lr=0.316,
                                          eps=1e-7)
    local_epochs: int = 1
    kind: ClassVar[str] = "fedopt"

    def __post_init__(self) -> None:
        ensure(self.local_epochs >= 1, "local_epochs must be >= 1")
        ensure(self.server.kind in ("sgd-momentum", "adam"),
               f"unknown server optimizer {self.server.kind!r}")
        ensure(not self.server.nesterov and self.server.weight_decay == 0,
               "the server optimizer takes no nesterov or weight_decay")

    def start(self, d, w0, steps_per_epoch):
        period = self.local_epochs * steps_per_epoch
        state = self.server.build(d)
        w_global = w0

        def hook(t, params, reduce, scratch):
            nonlocal w_global
            if t % period:
                return None, None
            delta = reduce(np.subtract(params, w_global, out=scratch),
                           "model-sync")
            w_global = apply_gradient(state, w_global.copy(), -delta)
            return None, w_global

        return hook
