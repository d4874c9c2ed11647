"""The TaskPoint controller: sampling mechanism driving the simulator modes.

The controller implements the :class:`repro.sim.modes.ModeController`
interface and realises the sampling mechanism of paper §III-B:

1. **Warm-up** — at simulation start each thread simulates
   ``warmup_instances`` (W) task instances in detail; their IPCs are added
   only to the history of *all* samples.
2. **Sampling** — subsequent instances are simulated in detail as *valid
   samples* (added to both histories).  Sampling ends — and fast-forwarding
   begins — when either every observed task type's valid history is full, or
   every thread has simulated ``rare_type_cutoff`` instances in a row without
   encountering an instance of a not-yet-fully-sampled (rare) task type.
3. **Fast-forward** — instances are advanced in burst mode at the mean IPC of
   their type's valid history (falling back to the history of all samples for
   rare types).  Instances that started in detailed mode before the switch
   run to completion in detailed mode but are only added to the history of
   all samples.
4. **Resampling** — triggered when a thread has fast-forwarded P
   (``sampling_period``) instances since the last sampling interval
   (periodic sampling; lazy sampling, P = ∞, never triggers it), when the
   number of threads participating in execution changes, or when an
   instance's task type has no samples at all.  Resampling discards the
   valid histories, re-warms each thread with one detailed instance and then
   samples again.

The warm-up budgets, the thread-count trigger and resample counting live in
:class:`SamplingController`, which the stratified and fidelity engines share
with TaskPoint.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.config import ControllerConfig, TaskPointConfig
from repro.core.fastforward import FastForwardEstimator
from repro.core.history import HistoryTable
from repro.runtime.task import TaskInstance
from repro.sim.modes import (
    DETAILED_DECISION,
    DETAILED_WARMUP_DECISION,
    CompletionInfo,
    ModeDecision,
    SimulationMode,
    burst_decision,
)


class SamplingPhase(enum.Enum):
    """Global phase of the sampling mechanism."""

    SAMPLING = "sampling"            # detailed simulation (warm-up or valid samples)
    FAST_FORWARD = "fast_forward"    # burst simulation at per-type IPC


class ResampleReason(enum.Enum):
    """Why a resampling interval was triggered."""

    PERIOD_ELAPSED = "period_elapsed"
    THREAD_COUNT_CHANGE = "thread_count_change"
    NEW_TASK_TYPE = "new_task_type"
    EMPTY_HISTORY = "empty_history"
    #: Per-type drift re-open of the fidelity controller: the type's
    #: prequential residual window shifted outside its error allowance.
    DRIFT = "drift"


#: IPC recorded for a detailed completion that measured no forward progress
#: (``ipc <= 0``, e.g. a zero-instruction task type).  Recording a floor
#: sample instead of dropping the completion keeps the type's history
#: non-empty — fast-forwarding a zero-instruction instance at this IPC
#: costs ``0 / ZERO_IPC_FLOOR = 0`` cycles, while dropping it made every
#: fast-forward attempt of the type fire an EMPTY_HISTORY resample
#: (degrading the whole run to detailed simulation).
ZERO_IPC_FLOOR = 1e-9


@dataclass
class TaskPointStatistics:
    """Counters describing what the sampling mechanism did during a run."""

    warmup_instances: int = 0
    valid_samples: int = 0
    invalid_samples: int = 0
    fast_forwarded: int = 0
    transitions_to_fast: int = 0
    resamples: int = 0
    resample_reasons: Counter = field(default_factory=Counter)
    fallback_estimates: int = 0

    @property
    def detailed_instances(self) -> int:
        """Total task instances simulated in detailed mode."""
        return self.warmup_instances + self.valid_samples + self.invalid_samples

    @property
    def total_instances(self) -> int:
        """Total task instances the controller made a decision for."""
        return self.detailed_instances + self.fast_forwarded

    @property
    def detailed_fraction(self) -> float:
        """Fraction of instances simulated in detail."""
        total = self.total_instances
        return self.detailed_instances / total if total else 0.0


class SamplingController:
    """Warm-up, thread-count and resample bookkeeping of every sampling engine.

    :class:`TaskPointController`, the stratified engine
    (:class:`repro.core.stratified.StratifiedController`) and the fidelity
    controller (:class:`repro.core.fidelity.FidelityController`) share the
    mechanism of paper §III-B and differ only in their estimator and the
    order of their decisions:

    * **Warm-up budgets** are per worker.  A worker's *first* participation
      warms with the full W (``warmup_instances``), even when it joins after
      a resample; only workers that already warmed re-warm with the short
      ``resample_warmup_instances`` budget.
    * **The Figure 4a trigger** fires once the active-thread count has stayed
      outside the tolerance band around the armed count for
      ``thread_change_persistence`` consecutive checks.
    * **A resample** is counted with its :class:`ResampleReason`, disarms the
      trigger, re-warms every worker and calls :meth:`_discard_samples`,
      where each engine drops its estimator state.

    Subclasses set ``self.stats`` (a :class:`TaskPointStatistics`) and
    implement ``choose_mode`` / ``notify_completion``.
    """

    stats: TaskPointStatistics

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        # Budgets of the current warm-up round; a resample clears the table
        # (see ``_remaining_warmup``).
        self._warmup_remaining: Dict[int, int] = {}
        self._warmed_workers: Set[int] = set()
        # Number of threads participating in execution when the current
        # samples were taken; None while the trigger is disarmed.
        self._sampled_thread_count: Optional[int] = None
        # Consecutive checks that observed a thread count outside the
        # tolerance band (Figure 4a trigger with persistence).
        self._thread_change_streak: int = 0

    def _remaining_warmup(self, worker_id: int) -> int:
        """This worker's current warm-up budget, lazily initialised.

        A worker absent from ``_warmup_remaining`` is starting (or
        re-starting after a resample cleared the table): its budget is the
        short resample warm-up if it has warmed before, the full initial W
        otherwise.
        """
        remaining = self._warmup_remaining.get(worker_id)
        if remaining is None:
            remaining = (
                self.config.resample_warmup_instances
                if worker_id in self._warmed_workers
                else self.config.warmup_instances
            )
            self._warmup_remaining[worker_id] = remaining
        return remaining

    def _detailed_decision(self, worker_id: int) -> ModeDecision:
        if self._remaining_warmup(worker_id) > 0:
            return DETAILED_WARMUP_DECISION
        return DETAILED_DECISION

    def _account_warmup(self, info: CompletionInfo) -> bool:
        """Book a detailed completion's warm-up; ``True`` if it was one.

        Runs first for every detailed completion, whatever IPC it measured:
        the worker counts as warmed, and a warm-up instance is counted and
        consumes one unit of the worker's budget.
        """
        worker_id = info.worker_id
        self._warmed_workers.add(worker_id)
        if not info.is_warmup:
            return False
        self.stats.warmup_instances += 1
        remaining = self._remaining_warmup(worker_id)
        if remaining > 0:
            self._warmup_remaining[worker_id] = remaining - 1
        return True

    def _arm_thread_trigger(self, active_workers: int) -> None:
        """Record the thread count the current samples are taken under."""
        self._sampled_thread_count = active_workers
        self._thread_change_streak = 0

    def _thread_count_changed(self, active_workers: int) -> bool:
        """Check the Figure 4a trigger with tolerance and persistence.

        A resample is only triggered once the active-thread count has stayed
        outside the tolerance band for ``thread_change_persistence``
        consecutive checks, so momentary dips at dependency boundaries do
        not discard otherwise valid samples.
        """
        if not self.config.resample_on_thread_change:
            return False
        if not self._sampled_thread_count:
            return False
        change = abs(active_workers - self._sampled_thread_count) / self._sampled_thread_count
        if change > self.config.thread_change_tolerance:
            self._thread_change_streak += 1
        else:
            self._thread_change_streak = 0
        return self._thread_change_streak >= self.config.thread_change_persistence

    def _count_resample(self, reason: ResampleReason) -> None:
        self.stats.resamples += 1
        self.stats.resample_reasons[reason] += 1

    def _trigger_resample(self, reason: ResampleReason) -> None:
        """Resample: disarm the trigger, re-warm workers, discard samples.

        Already-warmed workers re-warm with the short resample budget; a
        worker first participating after this still gets the full W.
        """
        self._count_resample(reason)
        self._sampled_thread_count = None
        self._thread_change_streak = 0
        self._warmup_remaining.clear()
        self._discard_samples()

    def _discard_samples(self) -> None:
        """Drop the engine's estimator state on a resample."""
        raise NotImplementedError


class TaskPointController(SamplingController):
    """Drives a TaskSim-style simulator according to the TaskPoint methodology.

    Parameters
    ----------
    config:
        TaskPoint model parameters (W, H, P and the resampling triggers).
    """

    def __init__(self, config: Optional[TaskPointConfig] = None) -> None:
        super().__init__(config if config is not None else TaskPointConfig())
        self.histories = HistoryTable(self.config.history_size)
        self.estimator = FastForwardEstimator(self.histories)
        self.stats = TaskPointStatistics()

        self.phase = SamplingPhase.SAMPLING
        # Per-worker count of consecutive completed instances whose type was
        # already fully sampled (used for the rare-type sampling cut-off).
        self._since_rare: Dict[int, int] = defaultdict(int)
        # Per-worker count of instances fast-forwarded since the last
        # sampling interval (compared against the sampling period P).
        self._fast_forwarded: Dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _sampling_complete(self) -> bool:
        """Evaluate the two sampling-termination conditions of the paper."""
        states = self.histories.states
        if not states:
            return False
        if self.histories.all_fully_sampled():
            return True
        # Cut-off: every worker that has completed work has gone
        # ``rare_type_cutoff`` instances without meeting a rare type, and at
        # least one type is usable for fast-forwarding.
        if not self._since_rare:
            return False
        any_usable = any(not state.all.is_empty for state in states)
        if not any_usable:
            return False
        return all(
            count >= self.config.rare_type_cutoff for count in self._since_rare.values()
        )

    def _enter_fast_forward(self, active_workers: int) -> None:
        self.phase = SamplingPhase.FAST_FORWARD
        self.stats.transitions_to_fast += 1
        self._arm_thread_trigger(active_workers)
        self._fast_forwarded.clear()

    def _discard_samples(self) -> None:
        """Discard valid samples and return to the sampling phase."""
        self.phase = SamplingPhase.SAMPLING
        self.histories.clear_valid()
        self._since_rare.clear()
        self._fast_forwarded.clear()

    # ------------------------------------------------------------------
    # ModeController interface
    # ------------------------------------------------------------------
    def choose_mode(
        self,
        instance: TaskInstance,
        worker_id: int,
        active_workers: int,
        current_cycle: float,
    ) -> ModeDecision:
        """Decide how the simulator should execute ``instance``."""
        task_type = instance.task_type.name
        first_encounter = not self.histories.known(task_type)
        # Registers a first-seen type, which _sampling_complete reads.
        self.histories.state(task_type)

        if self.phase is SamplingPhase.SAMPLING:
            if self._sampling_complete():
                self._enter_fast_forward(active_workers)
            else:
                return self._detailed_decision(worker_id)

        # Fast-forward phase: check the resampling triggers in the order the
        # paper discusses them (correctness triggers first, then the period).
        if first_encounter and self.config.resample_on_new_task_type:
            self._trigger_resample(ResampleReason.NEW_TASK_TYPE)
            return self._detailed_decision(worker_id)
        if self._thread_count_changed(active_workers):
            self._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
            return self._detailed_decision(worker_id)
        period = self.config.sampling_period
        if period is not None and self._fast_forwarded[worker_id] >= period:
            self._trigger_resample(ResampleReason.PERIOD_ELAPSED)
            return self._detailed_decision(worker_id)

        estimate = self.estimator.estimate_type(task_type, instance.instructions)
        if estimate is None:
            # No sample of any kind for this type: impossible to fast-forward.
            self._trigger_resample(ResampleReason.EMPTY_HISTORY)
            return self._detailed_decision(worker_id)
        if estimate.used_fallback:
            self.stats.fallback_estimates += 1
        self._fast_forwarded[worker_id] += 1
        self.stats.fast_forwarded += 1
        return burst_decision(estimate.ipc)

    def notify_completion(self, info: CompletionInfo) -> None:
        """Record the measured IPC of a detailed instance in the histories."""
        if info.mode is not SimulationMode.DETAILED:
            return
        # A detailed completion that measured no forward progress (a
        # zero-instruction task type) still records a floor sample: it must
        # populate the history and run the rare-type bookkeeping below,
        # otherwise the type stays unestimable and every fast-forward
        # attempt fires an EMPTY_HISTORY resample (a resample storm that
        # degrades the run to fully detailed).
        ipc = info.ipc if info.ipc > 0 else ZERO_IPC_FLOOR
        state = self.histories.state(info.instance.task_type.name)
        if self._account_warmup(info):
            # Warm-up instances only feed the history of all samples.
            state.record_detailed(ipc, valid=False)
        elif self.phase is SamplingPhase.SAMPLING:
            state.record_detailed(ipc, valid=True)
            self.stats.valid_samples += 1
        else:
            # The instance started in detail before the transition to fast
            # mode and finished afterwards: only the history of all samples.
            state.record_detailed(ipc, valid=False)
            self.stats.invalid_samples += 1

        # Rare-type cut-off bookkeeping: a completed detailed instance of a
        # not-yet-fully-sampled type resets the worker's streak.
        if state.is_rare:
            self._since_rare[info.worker_id] = 0
        else:
            self._since_rare[info.worker_id] += 1
