"""TaskPoint: sampled simulation of task-based programs.

This package implements the paper's primary contribution.  TaskPoint treats
task instances as sampling units: a small number of instances of each task
type are simulated in detail (to warm the simulated micro-architecture and to
measure per-type IPC), and the remaining instances are *fast-forwarded* at
the average IPC recorded for their task type, scaled by each instance's
dynamic instruction count.

The paper's two sampling policies differ in one number, the sampling period
P: periodic sampling resamples after P fast-forwarded instances per thread,
lazy sampling never does (P = ∞).  The building blocks:

* :class:`~repro.core.config.TaskPointConfig` collects the model parameters
  W (warm-up), H (history size) and P (sampling period, ``None`` for lazy),
* :class:`~repro.core.history.SampleHistory` and
  :class:`~repro.core.history.TaskTypeState` hold the per-type IPC histories
  (valid samples and all samples),
* :class:`~repro.core.fastforward.FastForwardEstimator` predicts the cycles
  of a fast-forwarded instance (``C_i = I_i / IPC_T``),
* :class:`~repro.core.controller.TaskPointController` plugs all of the above
  into the simulator's mode-controller interface.

Three sampling engines implement that interface on one shared core,
:class:`~repro.core.controller.SamplingController`, which owns the per-worker
warm-up budgets, the Figure 4a thread-count trigger and resample counting
(configured by the fields of :class:`~repro.core.config.ControllerConfig`):

* :class:`~repro.core.controller.TaskPointController` — the paper's
  periodic and lazy sampling,
* :class:`~repro.core.stratified.StratifiedController` — two-phase
  stratified sampling with a 95% confidence interval,
* :class:`~repro.core.fidelity.FidelityController` — the online
  error-budget controller.

Each keeps only its estimator and its decision order.  One entry point,
:func:`~repro.core.api.sampled_simulation`, runs any of them (the config's
type picks the engine).

Typical use::

    from repro.core import sampled_simulation
    result = sampled_simulation(trace, num_threads=64)
"""

from repro.core.config import ControllerConfig, TaskPointConfig
from repro.core.history import SampleHistory, TaskTypeState
from repro.core.fastforward import FastForwardEstimate, FastForwardEstimator
from repro.core.controller import (
    ResampleReason,
    SamplingController,
    SamplingPhase,
    TaskPointController,
    TaskPointStatistics,
)
from repro.core.fidelity import (
    FidelityConfig,
    FidelityController,
    FidelityStatistics,
)
from repro.core.stratified import (
    StratifiedConfig,
    StratifiedController,
    StratifiedStatistics,
)
from repro.core.api import compare_with_detailed, sampled_simulation

__all__ = [
    "ControllerConfig",
    "TaskPointConfig",
    "SampleHistory",
    "TaskTypeState",
    "FastForwardEstimate",
    "FastForwardEstimator",
    "SamplingController",
    "TaskPointController",
    "TaskPointStatistics",
    "SamplingPhase",
    "ResampleReason",
    "StratifiedConfig",
    "StratifiedController",
    "StratifiedStatistics",
    "FidelityConfig",
    "FidelityController",
    "FidelityStatistics",
    "sampled_simulation",
    "compare_with_detailed",
]
