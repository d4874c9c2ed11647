"""Sampling-engine parameters.

:class:`ControllerConfig` holds the warm-up and thread-count-trigger fields
every sampling engine shares.  Each engine's config adds its own:
:class:`TaskPointConfig` (periodic and lazy TaskPoint),
:class:`StratifiedConfig` (:mod:`repro.core.stratified`) and
:class:`FidelityConfig` (:mod:`repro.core.fidelity`).  They live here, not
beside their engines, so the CLI, the experiment specs and the service
client read every engine's defaults without importing numpy.

For TaskPoint, the paper's sensitivity analysis (Section V-A, Figure 6)
determines the default values used for the evaluation: a warm-up interval of
W = 2 task instances per thread, a sample-history size of H = 4 and a
sampling period of P = 250 for periodic sampling (P = ∞, i.e. ``None`` here,
selects lazy sampling).
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


@dataclass(frozen=True)
class StratifiedConfig(ControllerConfig):
    """Configuration of the stratified sampling engine.

    Adds to the shared :class:`ControllerConfig` fields (warm-up and the
    thread-count trigger, with TaskPoint's semantics; W defaults to 1 here):

    Attributes
    ----------
    budget:
        Target fraction of all task instances simulated in detail (warm-up
        and pilot included).  The budget is a target, not a hard cap: the
        pilot and per-worker warm-up establish a floor, and resampling
        triggers may re-spend.
    strata_per_type:
        Maximum number of strata each task type is split into.
    min_stratum_size:
        Task types with fewer than ``strata_per_type * min_stratum_size``
        instances get proportionally fewer strata (never zero).
    pilot_samples:
        Detailed samples taken from every stratum before the Neyman
        allocation of the remaining budget (phase 2's first stage).
    resample_on_new_task_type:
        TaskPoint's Figure 4b trigger, for instances outside the profile.
    """

    warmup_instances: int = 1
    budget: float = 0.02
    strata_per_type: int = 3
    min_stratum_size: int = 16
    pilot_samples: int = 3
    resample_on_new_task_type: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be a fraction in (0, 1]")
        if self.strata_per_type < 1:
            raise ValueError("strata_per_type must be >= 1")
        if self.min_stratum_size < 1:
            raise ValueError("min_stratum_size must be >= 1")
        if self.pilot_samples < 2:
            raise ValueError("pilot_samples must be >= 2 (variance needs 2 samples)")


@dataclass(frozen=True)
class FidelityConfig(ControllerConfig):
    """Configuration of the online error-budget fidelity controller.

    Adds to the shared :class:`ControllerConfig` fields.  Warm-up
    completions are excluded from the model.  A persistent thread-count
    change re-opens *every* type (the contention regime changed) but keeps
    the models — the drift detector corrects them instead of discarding
    history.

    Attributes
    ----------
    error_budget:
        Target relative execution-time error (fraction, e.g. ``0.02``).
        This is the one knob: everything below tunes *how* the controller
        meets it, not *what* it aims for.
    min_samples:
        Valid detailed samples a type needs before it may commit to
        fast-forwarding.
    min_residuals:
        Prequential residuals a type needs before the CI criterion is
        evaluated (a CI from fewer points is too noisy to act on).
    residual_window:
        Bounded window of most-recent prequential residuals the commit /
        drift criterion is computed over.
    probe_period:
        Fast-forwarded instances of a committed type between detailed
        probes (the drift detector's sensor).
    max_probe_period:
        Ceiling the probe spacing grows to while probes stay clean
        (doubling per clean probe).
    reopen_factor:
        Hysteresis of the drift detector: a committed type re-opens when
        ``|mean| + half_width`` exceeds ``reopen_factor`` times its
        allowance (or the mean alone exceeds the allowance), not at the
        commit threshold — otherwise boundary types flap.
    share_floor:
        Lower clamp of a type's running work share in the allowance
        computation.
    allowance_cap:
        Upper clamp of the per-type allowance, as a multiple of the error
        budget.
    """

    error_budget: float = 0.02
    min_samples: int = 4
    min_residuals: int = 4
    residual_window: int = 16
    probe_period: int = 25
    max_probe_period: int = 200
    reopen_factor: float = 1.5
    share_floor: float = 0.01
    allowance_cap: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.error_budget < 1.0:
            raise ValueError("error_budget must be a fraction in (0, 1)")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.min_residuals < 2:
            raise ValueError("min_residuals must be >= 2 (a CI needs 2 samples)")
        if self.residual_window < self.min_residuals:
            raise ValueError("residual_window must be >= min_residuals")
        if self.probe_period < 1:
            raise ValueError("probe_period must be >= 1")
        if self.max_probe_period < self.probe_period:
            raise ValueError("max_probe_period must be >= probe_period")
        if self.reopen_factor < 1.0:
            raise ValueError("reopen_factor must be >= 1.0")
        if not 0.0 < self.share_floor <= 1.0:
            raise ValueError("share_floor must be a fraction in (0, 1]")
        if self.allowance_cap < 1.0:
            raise ValueError("allowance_cap must be >= 1.0")


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
