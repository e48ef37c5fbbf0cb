"""One-dimensional random interlacements toolkit.

Exact closed-form laws, unbiased samplers and numerically stable survival
kernels for the simple random walk conditioned to avoid the origin, plus a
statistical harness used by the ``ri1d`` command line tool.
"""

__version__ = "0.1.0"

from .rngs import RngState
from .capacity import IntervalSet, EquilibriumMeasure, capacity, capacity_hat, equilibrium_measure
from .core_walks import WalkPath
from .interlacements import WindowSample, LocalTimeLaw
from .ring_kernel import SurvivalKernel
from .mc import EmpiricalSummary, Experiment, Verdict

__all__ = [
    "RngState",
    "IntervalSet",
    "EquilibriumMeasure",
    "capacity",
    "capacity_hat",
    "equilibrium_measure",
    "WalkPath",
    "WindowSample",
    "LocalTimeLaw",
    "SurvivalKernel",
    "EmpiricalSummary",
    "Experiment",
    "Verdict",
    "__version__",
]
