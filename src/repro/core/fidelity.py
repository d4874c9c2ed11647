"""Online error-budget fidelity controller.

TaskPoint fixes its speed/accuracy trade-off at configuration time: the user
picks a policy (periodic P, lazy, or a stratified budget) and gets whatever
error falls out.  This module inverts the knob — the user declares an **error
budget** (``--error-budget 0.02``) and a per-task-type online controller
drives each type between detailed and fast-forward simulation to meet it
(grounded in PAPERS.md's "Task-Informed Fidelity Management for Speeding Up
Robotics Simulation": adaptive per-component fidelity against an error
budget).

Per task type the controller maintains an **online linear cost model** in CPI
space: ``cycles/instructions ~ theta . (1, detail_events/instructions,
memory_accesses/instructions)``, fit by accumulated normal equations over the
type's detailed completions (per-worker warm-up completions are excluded —
their cold-cache CPIs would bias the model).  The signature features come
straight off the columnar trace
(:meth:`repro.trace.columns.TraceColumns.instance_signatures`), so the model
costs no extra simulation.  With the ratio features constant the model
degenerates gracefully to the type's mean CPI — the classic TaskPoint
estimator — while heterogeneous types (sparse kernels whose instances differ
in size and memory intensity) get a per-instance prediction instead of a
single mean.

The error signal is **prequential**: before a detailed completion updates the
model, the *previous* model predicts it, and the relative residual
``(predicted - actual) / actual`` lands in a bounded window.  The window's
t-based 95% confidence interval (``ddof=1``, via the PR-8 estimator helpers
in :mod:`repro.core.history`) bounds the relative bias of fast-forwarding
this type:

* **commit** (start fast-forwarding) when ``|mean| + half_width`` falls
  inside the type's share of the error budget,
* **drift re-open** (resume sampling, per type — histories and model are
  *kept*, unlike the global resample of the other engines) when the window
  shifts clearly outside it: ``|mean| > allowance`` or ``|mean| +
  half_width > reopen_factor * allowance``.

The per-type allowance divides the budget by the square root of the type's
running share of simulated work (``budget / sqrt(share)``, capped), so types
that dominate execution time are held to the full budget while a type
carrying 1% of the cycles may carry a proportionally wider relative error —
the *workload-level* error, which is what the user budgets for, is the
work-weighted combination.

Committed types are audited by **detailed probes**: every ``probe_period``-th
fast-forward of the type runs detailed instead, feeds the model and re-checks
the criterion.  Consecutive clean probes stretch the probe spacing
(doubling up to ``max_probe_period``); a drift re-open resets it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ResampleReason, SamplingController, TaskPointStatistics
from repro.core.history import combined_confidence, mean_confidence_interval
from repro.runtime.task import TaskInstance
from repro.sim.modes import (
    DETAILED_WARMUP_DECISION,
    CompletionInfo,
    ModeDecision,
    SimulationMode,
    burst_decision,
)

#: Columns of ``instance_signatures()`` used by the cost model.
_SIG_INSTRUCTIONS = 0
_SIG_DETAIL_EVENTS = 2
_SIG_MEMORY_ACCESSES = 3

#: Number of model features: intercept + two per-instruction ratios.
_NUM_FEATURES = 3


@dataclass(frozen=True)
class FidelityConfig(ControllerConfig):
    """Configuration of the online error-budget fidelity controller.

    Adds to the shared :class:`~repro.core.config.ControllerConfig` fields.
    Warm-up completions are excluded from the model.  A persistent
    thread-count change re-opens *every* type (the contention regime
    changed) but keeps the models — the drift detector corrects them
    instead of discarding history.

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


class FidelityTypeState:
    """Per-task-type model, residual window and fast-forward state."""

    __slots__ = (
        "task_type",
        "gram",
        "rhs",
        "samples",
        "theta",
        "residuals",
        "committed",
        "commits",
        "reopens",
        "probes",
        "since_probe",
        "probe_period",
        "work_cycles",
        "ff_cycles",
        "fast_forwarded",
    )

    def __init__(self, task_type: str) -> None:
        self.task_type = task_type
        # Normal equations of the CPI-space least-squares fit, accumulated
        # over all valid samples of the type (never discarded — a drift
        # re-open keeps the model and lets new samples correct it).
        self.gram = np.zeros((_NUM_FEATURES, _NUM_FEATURES), dtype=np.float64)
        self.rhs = np.zeros(_NUM_FEATURES, dtype=np.float64)
        self.samples = 0
        self.theta: Optional[np.ndarray] = None
        self.residuals: Optional[Deque[float]] = None  # created lazily
        self.committed = False
        self.commits = 0
        self.reopens = 0
        self.probes = 0
        self.since_probe = 0
        self.probe_period = 0  # set by the controller on first use
        self.work_cycles = 0.0  # observed + predicted cycles of the type
        self.ff_cycles = 0.0    # predicted cycles of fast-forwarded instances
        self.fast_forwarded = 0

    def predict_cycles(self, features: np.ndarray, instructions: float) -> Optional[float]:
        """Predicted cycles of one instance; ``None`` before any sample."""
        if self.theta is None:
            return None
        return max(1.0, float(features @ self.theta) * instructions)

    def observe(self, features: np.ndarray, cpi: float) -> None:
        """Fold one valid detailed sample into the normal equations."""
        self.gram += np.outer(features, features)
        self.rhs += features * cpi
        self.samples += 1
        # ``lstsq`` rather than ``solve``: with few samples (or constant
        # ratio features) the Gram matrix is singular and the minimum-norm
        # solution is exactly the right degeneracy — mean CPI.
        self.theta = np.linalg.lstsq(self.gram, self.rhs, rcond=None)[0]

    def criterion(self) -> Optional[tuple]:
        """``(|mean|, half_width)`` of the residual window, or ``None``.

        The half-width is the t-based 95% CI of the window mean
        (:func:`repro.core.history.mean_confidence_interval`).
        """
        window = self.residuals
        if window is None or len(window) < 2:
            return None
        interval = mean_confidence_interval(window)
        return abs(interval.mean), interval.half_width

    def relative_error(self) -> Optional[float]:
        """Bias plus CI of the window, ``|mean| + half_width``, or ``None``."""
        crit = self.criterion()
        return None if crit is None else crit[0] + crit[1]


@dataclass
class FidelityStatistics(TaskPointStatistics):
    """TaskPoint-shaped counters plus the fidelity controller's state.

    Extends :class:`~repro.core.controller.TaskPointStatistics` so every
    consumer of sampling statistics (``ExperimentResult.from_simulation``,
    the accuracy analysis, result metadata) accepts it unchanged; the extra
    state feeds :meth:`confidence_summary` and :meth:`fidelity_summary`.
    """

    error_budget: float = 0.0
    types: List[FidelityTypeState] = field(default_factory=list)

    def confidence_summary(self, total_cycles: float) -> Optional[Dict[str, object]]:
        """95% CI of the estimated execution time, as a JSON-friendly dict.

        Each type's fast-forwarded cycles carry the relative uncertainty of
        its residual window (``|mean| + half_width`` — bias plus CI, the
        same quantity the commit criterion bounds), combined across types
        by :func:`repro.core.history.combined_confidence`.  Types that
        fast-forwarded without a usable window fall back to the widest
        error (conservative).  Returns ``None`` when nothing was
        fast-forwarded.
        """
        return combined_confidence(
            total_cycles,
            (
                (state.ff_cycles, state.relative_error())
                for state in self.types
                if state.ff_cycles > 0
            ),
            num_types=len(self.types),
            committed_types=sum(1 for s in self.types if s.committed),
        )

    def fidelity_summary(self) -> Dict[str, object]:
        """Controller outcome, as a JSON-friendly dict (result metadata)."""
        return {
            "error_budget": self.error_budget,
            "num_types": len(self.types),
            "committed_types": sum(1 for s in self.types if s.committed),
            "commits": sum(s.commits for s in self.types),
            "reopens": sum(s.reopens for s in self.types),
            "probes": sum(s.probes for s in self.types),
        }


class FidelityController(SamplingController):
    """Mode controller meeting a user-declared error budget online.

    Implements the :class:`repro.sim.modes.ModeController` interface, so it
    plugs into :class:`repro.sim.simulator.TaskSimSimulator` exactly like
    :class:`~repro.core.controller.TaskPointController`.

    Parameters
    ----------
    trace:
        The application trace about to be simulated (or its
        :class:`~repro.trace.columns.TraceColumns`); the per-instance
        signature features of the cost model are read off its columns at
        construction time.
    config:
        Controller parameters; ``None`` selects the defaults (2% budget).
    """

    def __init__(self, trace, config: Optional[FidelityConfig] = None) -> None:
        super().__init__(config if config is not None else FidelityConfig())
        columns = getattr(trace, "columns", trace)
        signatures = columns.instance_signatures().astype(np.float64)
        if signatures.shape[0]:
            instructions = np.maximum(signatures[:, _SIG_INSTRUCTIONS], 1.0)
            self._features = np.column_stack(
                [
                    np.ones(signatures.shape[0]),
                    signatures[:, _SIG_DETAIL_EVENTS] / instructions,
                    signatures[:, _SIG_MEMORY_ACCESSES] / instructions,
                ]
            )
            self._instructions = instructions
        else:
            self._features = np.zeros((0, _NUM_FEATURES), dtype=np.float64)
            self._instructions = np.zeros(0, dtype=np.float64)
        self._num_records = signatures.shape[0]

        self._states: Dict[str, FidelityTypeState] = {}
        self.stats = FidelityStatistics(error_budget=self.config.error_budget)
        self._total_work = 0.0

    # ------------------------------------------------------------------
    # Per-type state and budget allocation
    # ------------------------------------------------------------------
    def _state(self, task_type: str) -> FidelityTypeState:
        state = self._states.get(task_type)
        if state is None:
            state = FidelityTypeState(task_type)
            state.probe_period = self.config.probe_period
            self._states[task_type] = state
            self.stats.types.append(state)
        return state

    def _allowance(self, state: FidelityTypeState) -> float:
        """Per-type error allowance from the running work share.

        ``budget / sqrt(share)``, clamped: the workload-level error is the
        work-weighted combination of per-type biases, so a type carrying a
        small share of the cycles may carry a proportionally wider relative
        error without moving the total.  The dominant type (share -> 1) is
        held to the raw budget.
        """
        budget = self.config.error_budget
        if self._total_work <= 0 or state.work_cycles <= 0:
            return budget
        share = max(state.work_cycles / self._total_work, self.config.share_floor)
        return min(budget / math.sqrt(share), budget * self.config.allowance_cap)

    def _update_commitment(self, state: FidelityTypeState, was_probe: bool) -> None:
        """Re-evaluate the commit / drift criterion after a valid sample."""
        if state.samples < self.config.min_samples:
            return
        window = state.residuals
        if window is None or len(window) < self.config.min_residuals:
            return
        crit = state.criterion()
        if crit is None:
            return
        mean_abs, half_width = crit
        allowance = self._allowance(state)
        if state.committed:
            if (
                mean_abs > allowance
                or mean_abs + half_width > self.config.reopen_factor * allowance
            ):
                # Drift: the window shifted clearly outside the allowance.
                # Re-open sampling for this type only — model and counters
                # are kept, new samples steer the fit back.
                state.committed = False
                state.reopens += 1
                state.probe_period = self.config.probe_period
                # Counted as a resample, but per type: no re-warm, and the
                # thread-count trigger stays armed.
                self._count_resample(ResampleReason.DRIFT)
            elif was_probe and mean_abs + half_width <= allowance:
                # Clean probe: stretch the probe spacing.
                state.probe_period = min(
                    self.config.max_probe_period, state.probe_period * 2
                )
        elif mean_abs + half_width <= allowance:
            state.committed = True
            state.commits += 1
            state.probe_period = self.config.probe_period
            state.since_probe = 0
            if state.commits == 1:
                self.stats.transitions_to_fast += 1

    def _discard_samples(self) -> None:
        """Re-open every type after a persistent thread-count change.

        The contention regime the models were fitted under changed, so
        committed types go back to sampling — but the models are *kept*
        (new samples shift the fit) and the residual windows are cleared so
        stale-regime residuals cannot immediately re-commit a type.
        """
        for state in self._states.values():
            state.committed = False
            state.probe_period = self.config.probe_period
            state.since_probe = 0
            if state.residuals is not None:
                state.residuals.clear()

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
        instance_id = instance.instance_id
        state = self._state(instance.task_type.name)

        if self._remaining_warmup(worker_id) > 0:
            return DETAILED_WARMUP_DECISION

        if self._thread_count_changed(active_workers):
            self._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
            return self._detailed_decision(worker_id)

        if not 0 <= instance_id < self._num_records:
            # Not part of the profiled trace: no signature features exist,
            # so the instance cannot be predicted — simulate it in detail.
            return self._detailed_decision(worker_id)

        if state.committed and state.since_probe < state.probe_period:
            features = self._features[instance_id]
            instructions = self._instructions[instance_id]
            predicted = state.predict_cycles(features, instructions)
            if predicted is not None:
                state.since_probe += 1
                state.fast_forwarded += 1
                state.work_cycles += predicted
                state.ff_cycles += predicted
                self._total_work += predicted
                self.stats.fast_forwarded += 1
                if self._sampled_thread_count is None:
                    self._arm_thread_trigger(active_workers)
                return burst_decision(instructions / predicted)

        # Sampling (not committed) or a detailed probe of a committed type.
        if state.committed:
            state.since_probe = 0
            state.probes += 1
        return self._detailed_decision(worker_id)

    def notify_completion(self, info: CompletionInfo) -> None:
        """Fold a completed detailed instance into its type's model."""
        if info.mode is not SimulationMode.DETAILED:
            return  # fast-forwarded: already accounted at decision time
        state = self._state(info.instance.task_type.name)
        cycles = max(float(info.cycles), 1.0)
        state.work_cycles += cycles
        self._total_work += cycles

        if self._account_warmup(info):
            return

        instance_id = info.instance.instance_id
        if not 0 <= instance_id < self._num_records:
            self.stats.invalid_samples += 1
            return

        features = self._features[instance_id]
        instructions = self._instructions[instance_id]
        was_probe = state.committed
        predicted = state.predict_cycles(features, instructions)
        if predicted is not None:
            if state.residuals is None:
                state.residuals = deque(maxlen=self.config.residual_window)
            state.residuals.append((predicted - cycles) / cycles)
        state.observe(features, cycles / instructions)
        self.stats.valid_samples += 1
        if self._sampled_thread_count is None:
            self._arm_thread_trigger(info.active_workers)
        self._update_commitment(state, was_probe)
