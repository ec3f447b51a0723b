"""Variance-triggered synchronization for distributed SGD.

Workers train locally and ship tiny per-step states (squared drift norm
plus a sketch or scalar projection of the drift); a full model average
fires only when the resulting variance overestimate crosses a threshold.
Includes an exact-variance audit, fixed-period (local SGD, whose period 1
is synchronous averaging) and server-optimizer baselines, and a
deterministic multi-worker simulator that accounts for communication and
computation cost.
"""

__version__ = "0.1.0"
