"""Variance-triggered synchronization for distributed SGD.

Workers train locally and ship tiny per-step states (squared drift norm
plus a sketch or scalar projection of the drift); a full model average
fires only when the resulting variance overestimate crosses a threshold.
Includes an exact-variance audit, fixed-period (local SGD, whose period 1
is synchronous averaging) and server-optimizer baselines, and a
deterministic multi-worker simulator that accounts for communication and
computation cost.

Importing the package before numpy caps BLAS at one thread unless the
environment already sets a count.  A run's own lanes (`vecmath.split`) are
its parallelism, and threaded BLAS kernels round differently from the
one-thread ones, so at d ~ 10^5 a run's bytes would depend on the core
count.  Imported after numpy with no count set, the package warns.
"""

import os
import sys
import warnings

__version__ = "0.1.0"

if "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    warnings.warn(
        "numpy was imported before dynavg and OPENBLAS_NUM_THREADS is not "
        "set, so the one-thread BLAS cap cannot take effect: a run at "
        "d > 10^4 may give other bytes than `dynavg run`.  Import dynavg "
        "first or set OPENBLAS_NUM_THREADS=1.", RuntimeWarning, stacklevel=2)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
