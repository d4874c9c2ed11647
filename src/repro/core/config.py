"""Sampling-engine parameters.

:class:`ControllerConfig` holds the warm-up and thread-count-trigger fields
every sampling engine shares; :class:`TaskPointConfig` adds TaskPoint's own.
The paper's sensitivity analysis (Section V-A, Figure 6) determines the
default values used for the evaluation: a warm-up interval of W = 2 task
instances per thread, a sample-history size of H = 4 and a sampling period of
P = 250 for periodic sampling (P = ∞, i.e. ``None`` here, selects lazy
sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ControllerConfig:
    """Warm-up and thread-count-trigger parameters of every sampling engine.

    The TaskPoint, stratified and fidelity configurations inherit these
    fields, and :class:`repro.core.controller.SamplingController` consumes
    them.

    Attributes
    ----------
    warmup_instances:
        W — number of task instances each thread simulates in detail at
        simulation start purely to warm micro-architectural state.
    resample_warmup_instances:
        Number of detailed instances each already-warmed thread simulates to
        re-warm state after a resample (paper uses 1).
    resample_on_thread_change:
        Trigger resampling when the number of threads participating in task
        execution changes relative to when the current samples were taken
        (Figure 4a).
    thread_change_tolerance:
        Relative change in the number of active threads required to trigger
        the thread-change resample (0.5 means the active-thread count must
        grow or shrink by at least 50%).  Small transient fluctuations at
        task boundaries are thereby ignored.
    thread_change_persistence:
        Number of consecutive decisions that must observe the changed thread
        count before resampling is triggered.  This filters out the
        momentary dips in available parallelism that occur at task
        dependency boundaries without affecting genuine phase changes.
    """

    warmup_instances: int = 2
    resample_warmup_instances: int = 1
    resample_on_thread_change: bool = True
    thread_change_tolerance: float = 0.5
    thread_change_persistence: int = 5

    def __post_init__(self) -> None:
        if self.warmup_instances < 0:
            raise ValueError("warmup_instances must be non-negative")
        if self.resample_warmup_instances < 0:
            raise ValueError("resample_warmup_instances must be non-negative")
        if self.thread_change_tolerance < 0:
            raise ValueError("thread_change_tolerance must be non-negative")
        if self.thread_change_persistence < 1:
            raise ValueError("thread_change_persistence must be >= 1")


@dataclass(frozen=True)
class TaskPointConfig(ControllerConfig):
    """Configuration of the TaskPoint sampling methodology.

    Adds to the shared :class:`ControllerConfig` fields (W and the
    thread-count trigger):

    Attributes
    ----------
    history_size:
        H — capacity of the per-task-type FIFO histories (both the history of
        valid samples and the history of all samples).
    sampling_period:
        P — number of task instances a thread may fast-forward before
        periodic sampling triggers a resample.  ``None`` means an infinite
        period, i.e. lazy sampling.
    rare_type_cutoff:
        Number of consecutive task instances every thread must simulate
        without encountering an instance of a not-yet-fully-sampled (rare)
        task type before sampling is cut off (paper uses 5).
    resample_on_new_task_type:
        Trigger resampling when fast-forward encounters a task type whose
        histories are both empty (Figure 4b).
    """

    history_size: int = 4
    sampling_period: Optional[int] = 250
    rare_type_cutoff: int = 5
    resample_on_new_task_type: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.history_size < 1:
            raise ValueError("history_size must be >= 1")
        if self.sampling_period is not None and self.sampling_period < 1:
            raise ValueError("sampling_period must be >= 1 or None for lazy sampling")
        if self.rare_type_cutoff < 1:
            raise ValueError("rare_type_cutoff must be >= 1")

    @property
    def is_lazy(self) -> bool:
        """``True`` when the sampling period is infinite (lazy sampling)."""
        return self.sampling_period is None


def periodic_config(
    sampling_period: int = TaskPointConfig.sampling_period,
    warmup_instances: int = TaskPointConfig.warmup_instances,
    history_size: int = TaskPointConfig.history_size,
) -> TaskPointConfig:
    """The paper's periodic-sampling configuration (W=2, H=4, P=250)."""
    return TaskPointConfig(
        warmup_instances=warmup_instances,
        history_size=history_size,
        sampling_period=sampling_period,
    )


def lazy_config(
    warmup_instances: int = TaskPointConfig.warmup_instances,
    history_size: int = TaskPointConfig.history_size,
) -> TaskPointConfig:
    """The paper's lazy-sampling configuration (W=2, H=4, P=∞)."""
    return TaskPointConfig(
        warmup_instances=warmup_instances,
        history_size=history_size,
        sampling_period=None,
    )
