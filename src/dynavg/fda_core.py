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

from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from . import sketch as sk
from .learner import OptimizerState, apply_gradient, make_optimizer
from .vecmath import ParamVector, average, dot, norm_sq

Drift = ParamVector

# Unit direction used by the scalar-projection summary; None until two
# synchronization points exist (initialization counts as the first).
Xi = Optional[ParamVector]

XI_DEGENERATE_NORM = 1e-12


@dataclass
class LocalState:
    """Per-worker pair (||u||^2, summary); mergeable by averaging."""

    drift_norm_sq: float
    summary: Union[sk.AmsSketch, float]

    @property
    def is_sketch(self) -> bool:
        return isinstance(self.summary, sk.AmsSketch)


@dataclass
class AveragedState:
    mean_drift_norm_sq: float
    mean_summary: Union[sk.AmsSketch, float]

    @property
    def is_sketch(self) -> bool:
        return isinstance(self.mean_summary, sk.AmsSketch)


def variance_exact(models: list[ParamVector]) -> float:
    """Mean squared distance of the vectors from their average."""
    if len(models) == 0:
        raise ValueError("variance of an empty list")
    mean = average(models)
    total = 0.0
    for w in models:
        total += norm_sq(w - mean)
    return total / len(models)


def variance_from_drifts(mean_drift_norm_sq: float,
                         mean_drift: ParamVector) -> float:
    """Variance via the drift decomposition: mean||u||^2 - ||u_bar||^2."""
    return mean_drift_norm_sq - norm_sq(mean_drift)


def make_local_state_sketch(u: Drift, t: sk.SketchTransform) -> LocalState:
    return LocalState(drift_norm_sq=norm_sq(u), summary=sk.apply(t, u))


def make_local_state_linear(u: Drift, xi: Xi) -> LocalState:
    summary = 0.0 if xi is None else dot(xi, u)
    return LocalState(drift_norm_sq=norm_sq(u), summary=summary)


def average_states(states: list[LocalState]) -> AveragedState:
    """Elementwise mean of same-kind states, in ascending list order."""
    if len(states) == 0:
        raise ValueError("average of an empty state list")
    kinds = {s.is_sketch for s in states}
    if len(kinds) != 1:
        raise ValueError("cannot average sketch and scalar states together")
    k = len(states)
    mean_norm = sum(s.drift_norm_sq for s in states) / k
    if states[0].is_sketch:
        acc = states[0].summary
        for s in states[1:]:
            acc = sk.sketch_add(acc, s.summary)
        mean_summary: Union[sk.AmsSketch, float] = sk.sketch_scale(1.0 / k, acc)
    else:
        mean_summary = sum(s.summary for s in states) / k
    return AveragedState(mean_drift_norm_sq=mean_norm, mean_summary=mean_summary)


def h_sketch(avg: AveragedState, eps: float) -> float:
    """Sketch-based overestimate: mean||u||^2 - M2(mean sketch)/(1+eps)."""
    if not avg.is_sketch:
        raise ValueError("h_sketch needs sketch-kind averaged state")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return avg.mean_drift_norm_sq - sk.m2_estimate(avg.mean_summary) / (1.0 + eps)


def h_linear(avg: AveragedState) -> float:
    """Projection-based overestimate: mean||u||^2 - (mean <xi,u>)^2."""
    if avg.is_sketch:
        raise ValueError("h_linear needs scalar-kind averaged state")
    return avg.mean_drift_norm_sq - avg.mean_summary ** 2


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

# reduce(payloads, category) is the charged AllReduce: it averages one
# payload per worker and bills the ledger under "state" or "model-sync".
Reduce = Callable[[list, str], object]
# hook(t, worker params, reduce) -> (H or None, new common model or None)
StepHook = Callable[[int, list, Reduce],
                    tuple[Optional[float], Optional[ParamVector]]]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _every_step(t: int, params: list, reduce: Reduce):
    return None, reduce(params, "model-sync")


def _variance_monitor(theta, w_sync, make_state, h_of) -> StepHook:
    """Exchange local states every step; average the models on strict
    H > theta (ties keep training locally)."""
    xi: Xi = None

    def hook(t: int, params: list, reduce: Reduce):
        nonlocal xi, w_sync
        h = h_of(reduce([make_state(w - w_sync, xi) for w in params], "state"))
        if not h > theta:
            return h, None
        mean = reduce(params, "model-sync")
        xi = compute_xi(mean, w_sync)
        w_sync = mean
        return h, mean

    return hook


class SyncStrategy:
    """A synchronization policy: a frozen config that validates itself,
    maps to and from its YAML `strategy` node (`kind` is the `label`), and
    builds a fresh step hook, holding the run's monitor state, per run.
    A zero threshold degenerates to the every-step hook: monitoring a
    foregone decision would only add cost."""

    label: ClassVar[str]

    @classmethod
    def from_node(cls, node: dict, theta: Callable[[], float]):
        """Build from a strategy node; theta() resolves its threshold."""
        return cls()

    def to_node(self) -> dict:
        """Flat strategies use their field names as node keys."""
        return {"kind": self.label, **asdict(self)}

    def start(self, d: int, w0: ParamVector, steps_per_epoch: int) -> StepHook:
        raise NotImplementedError


@dataclass(frozen=True)
class SketchFda(SyncStrategy):
    theta: float
    rows: int = 5
    cols: int = 250
    seed: int = 0
    label: ClassVar[str] = "sketch-fda"

    def __post_init__(self) -> None:
        _check(self.theta >= 0, "theta must be >= 0")
        _check(self.rows >= 1 and self.cols >= 1,
               "sketch dimensions must be positive")

    @property
    def eps(self) -> float:
        return sk.relative_error(self.cols)

    @classmethod
    def from_node(cls, node, theta):
        shape = node.get("sketch", {})
        return cls(theta=theta(), rows=int(shape.get("rows", cls.rows)),
                   cols=int(shape.get("cols", cls.cols)),
                   seed=int(shape.get("seed", cls.seed)))

    def to_node(self):
        return {"kind": self.label, "theta": self.theta,
                "sketch": {"rows": self.rows, "cols": self.cols,
                           "seed": self.seed}}

    def start(self, d, w0, steps_per_epoch):
        if self.theta == 0:
            return _every_step
        transform = sk.make_transform(d, self.rows, self.cols, self.seed)
        eps = self.eps
        return _variance_monitor(
            self.theta, w0, lambda u, xi: make_local_state_sketch(u, transform),
            lambda avg: h_sketch(avg, eps))


@dataclass(frozen=True)
class LinearFda(SyncStrategy):
    theta: float
    label: ClassVar[str] = "linear-fda"

    def __post_init__(self) -> None:
        _check(self.theta >= 0, "theta must be >= 0")

    @classmethod
    def from_node(cls, node, theta):
        return cls(theta=theta())

    def start(self, d, w0, steps_per_epoch):
        if self.theta == 0:
            return _every_step
        return _variance_monitor(self.theta, w0, make_local_state_linear,
                                 h_linear)


@dataclass(frozen=True)
class Synchronous(SyncStrategy):
    label: ClassVar[str] = "synchronous"

    def start(self, d, w0, steps_per_epoch):
        return _every_step


@dataclass(frozen=True)
class LocalSgd(SyncStrategy):
    tau: int
    label: ClassVar[str] = "local-sgd"

    def __post_init__(self) -> None:
        _check(self.tau >= 1, "tau must be >= 1")

    @classmethod
    def from_node(cls, node, theta):
        _check("tau" in node, "local-sgd strategy needs tau")
        return cls(tau=int(node["tau"]))

    def start(self, d, w0, steps_per_epoch):
        def hook(t, params, reduce):
            return None, None if t % self.tau else reduce(params, "model-sync")
        return hook


@dataclass(frozen=True)
class FedOpt(SyncStrategy):
    """Periodic rounds: E local epochs, then a server-side optimizer step
    on the pseudo-gradient (the negated mean client delta)."""

    server_kind: str = "sgd-momentum"   # sgd-momentum | adam
    server_lr: float = 0.316
    server_momentum: float = 0.9
    server_beta1: float = 0.9
    server_beta2: float = 0.999
    server_eps: float = 1e-7
    local_epochs: int = 1
    label: ClassVar[str] = "fedopt"

    def __post_init__(self) -> None:
        _check(self.local_epochs >= 1, "local_epochs must be >= 1")
        _check(self.server_kind in ("sgd-momentum", "adam"),
               f"unknown server optimizer {self.server_kind!r}")

    @classmethod
    def from_node(cls, node, theta):
        server = node.get("server", {})
        return cls(
            server_kind=str(server.get("kind", cls.server_kind)),
            server_lr=float(server.get("lr", cls.server_lr)),
            server_momentum=float(server.get("momentum", cls.server_momentum)),
            server_beta1=float(server.get("beta1", cls.server_beta1)),
            server_beta2=float(server.get("beta2", cls.server_beta2)),
            server_eps=float(server.get("eps", cls.server_eps)),
            local_epochs=int(node.get("local_epochs", cls.local_epochs)))

    def to_node(self):
        server = {"kind": self.server_kind, "lr": self.server_lr,
                  "momentum": self.server_momentum, "beta1": self.server_beta1,
                  "beta2": self.server_beta2, "eps": self.server_eps}
        return {"kind": self.label, "local_epochs": self.local_epochs,
                "server": server}

    def start(self, d, w0, steps_per_epoch):
        period = self.local_epochs * steps_per_epoch
        server_opt = make_server_optimizer(self, d)
        w_global = w0

        def hook(t, params, reduce):
            nonlocal w_global
            if t % period:
                return None, None
            delta = reduce([w - w_global for w in params], "model-sync")
            w_global = fedopt_server_update(w_global, delta, server_opt)
            return None, w_global

        return hook


STRATEGIES = {s.label: s
              for s in (SketchFda, LinearFda, Synchronous, LocalSgd, FedOpt)}


def make_server_optimizer(strategy: FedOpt, d: int) -> OptimizerState:
    if strategy.server_kind == "sgd-momentum":
        return make_optimizer("sgd-momentum", d, strategy.server_lr,
                              momentum=strategy.server_momentum)
    return make_optimizer("adam", d, strategy.server_lr,
                          beta1=strategy.server_beta1,
                          beta2=strategy.server_beta2, eps=strategy.server_eps)


def fedopt_server_update(global_params: ParamVector,
                         mean_client_delta: ParamVector,
                         server_opt: OptimizerState) -> ParamVector:
    """Apply the server optimizer to the pseudo-gradient -mean_client_delta.

    With a plain SGD server at lr 1 this reduces to averaging the client
    models (global + mean delta).
    """
    return apply_gradient(server_opt, global_params, -mean_client_delta)
