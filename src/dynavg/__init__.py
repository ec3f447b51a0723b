"""Variance-triggered synchronization for distributed SGD.

Workers train locally and ship tiny per-step states (squared drift norm
plus a sketch or scalar projection of the drift); a full model average
fires only when the resulting variance overestimate crosses a threshold.
Includes exact oracles, every-step / fixed-period / server-optimizer
baselines, and a deterministic multi-worker simulator that accounts for
communication and computation cost.
"""

from .cluster_sim import (
    BlobsSpec,
    CostLedger,
    IdxSpec,
    Iid,
    NonIidFraction,
    NonIidLabel,
    OptimizerSpec,
    Partition,
    RunConfig,
    RunDivergedError,
    RunReport,
    allreduce_average,
    partition,
    run,
)
from .fda_core import (
    AveragedState,
    FedOpt,
    LinearFda,
    LocalSgd,
    LocalState,
    SketchFda,
    Synchronous,
    SyncStrategy,
    average_states,
    compute_xi,
    fedopt_server_update,
    h_linear,
    h_sketch,
    make_local_state_linear,
    make_local_state_sketch,
    variance_exact,
    variance_from_drifts,
)
from .learner import (
    Dataset,
    Model,
    OptimizerState,
    evaluate,
    init_model,
    load_idx,
    loss_and_grad,
    make_blobs,
    make_optimizer,
)
from .sketch import (
    AmsSketch,
    SketchTransform,
    apply,
    m2_estimate,
    make_transform,
    sketch_add,
    sketch_scale,
)
from .cli import theta_preset

__version__ = "0.1.0"
