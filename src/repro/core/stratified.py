"""Two-phase stratified sampling engine with confidence intervals.

TaskPoint's periodic/lazy policies sample task instances uniformly in time,
which spends detailed-simulation budget on low-variance task types and
reports point estimates with no error bars.  This module implements the
profile-then-stratify alternative ("CPU Simulation Using Two-Phase Stratified
Sampling", Ekman — see PAPERS.md):

**Phase 1 — profile (no simulation).**  Cheap per-instance signatures are
read straight off the columnar trace
(:meth:`repro.trace.columns.TraceColumns.instance_signatures`: op counts,
block geometry, dependency fan-in/out) and instances are clustered into
*strata*: within each task type, equal-frequency bins of a rank-composite
signature score.  Stratification is pure array math and fully deterministic.

**Phase 2 — sample and allocate.**  At run time the controller first takes a
small *pilot* of detailed samples from every stratum, then splits the
remaining detailed budget across strata proportionally to ``N_h * s_h``
(**Neyman allocation** — stratum size times unbiased sample standard
deviation), so high-variance strata get more of the budget and homogeneous
strata are fast-forwarded almost entirely at their stratum-mean IPC.

The final estimate carries a **95% confidence interval**: every stratum's
fast-forwarded cycles inherit the relative standard error of that stratum's
mean IPC (detailed-simulated cycles are exact and contribute none), combined
across strata as independent errors with per-stratum Student-t multipliers
(conservative at pilot-sized sample counts).  The CI describes the
*fast-forward estimation* uncertainty — scheduling interactions of burst
durations are first-order linear in them, which is the usual delta-method
approximation.

Warm-up, the thread-count trigger and resample counting come from
:class:`repro.core.controller.SamplingController`, shared with TaskPoint: a
persistent active-thread-count change or an unprofiled task type discards the
per-stratum IPC statistics *and* the Neyman allocation, re-warms, and
re-runs the pilot — allocations are never reused across a resample, since
they were computed from discarded samples.

All dispersion/CI math uses the unbiased (``ddof=1``) estimators of
:mod:`repro.core.history`; the legacy biased CoV path is untouched (see the
note there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ResampleReason, SamplingController, TaskPointStatistics
from repro.core.history import combined_confidence, t_critical_95
from repro.runtime.task import TaskInstance
from repro.sim.modes import CompletionInfo, ModeDecision, SimulationMode, burst_decision


@dataclass(frozen=True)
class StratifiedConfig(ControllerConfig):
    """Configuration of the stratified sampling engine.

    Adds to the shared :class:`~repro.core.config.ControllerConfig` fields
    (warm-up and the thread-count trigger, with TaskPoint's semantics; W
    defaults to 1 here):

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


class StratumState:
    """Runtime sampling state of one stratum.

    Samples are accumulated in **CPI space** (cycles per instruction,
    ``1/ipc``): fast-forwarded cycles are ``instructions * CPI``, so the
    estimator that makes the *cycle* estimate unbiased under within-stratum
    sampling is the arithmetic mean of CPI — equivalently the harmonic mean
    of IPC.  Fast-forwarding at the arithmetic-mean IPC instead would be
    Jensen-biased low on cycles (``E[1/IPC] >= 1/E[IPC]``).  The confidence
    interval is likewise computed from the CPI sample variance.
    """

    __slots__ = (
        "stratum_id",
        "task_type",
        "size",
        "pilot_target",
        "target",
        "decided_detailed",
        "count",
        "cpi_mean",
        "cpi_m2",
        "fast_forwarded",
        "ff_cycles",
    )

    def __init__(self, stratum_id: int, task_type: str, size: int, pilot_target: int) -> None:
        self.stratum_id = stratum_id
        self.task_type = task_type
        self.size = size              # N_h: instances in this stratum
        self.pilot_target = pilot_target
        self.target = pilot_target    # current detailed target (pilot or Neyman)
        self.decided_detailed = 0     # detailed decisions issued
        self.count = 0                # completed valid samples (n_h)
        self.cpi_mean = 0.0           # running mean CPI (Welford)
        self.cpi_m2 = 0.0             # running sum of squared CPI deviations
        self.fast_forwarded = 0
        self.ff_cycles = 0.0          # simulated cycles spent fast-forwarding

    def observe(self, ipc: float) -> None:
        """Welford update with one valid detailed IPC sample (as CPI)."""
        cpi = 1.0 / ipc
        self.count += 1
        delta = cpi - self.cpi_mean
        self.cpi_mean += delta / self.count
        self.cpi_m2 += delta * (cpi - self.cpi_mean)

    def fast_forward_ipc(self) -> Optional[float]:
        """Harmonic-mean IPC of the samples, or ``None`` without samples."""
        if self.count < 1 or self.cpi_mean <= 0:
            return None
        return 1.0 / self.cpi_mean

    def std(self) -> float:
        """Unbiased (ddof=1) CPI standard deviation; 0.0 below 2 samples."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self.cpi_m2 / (self.count - 1))

    def relative_standard_error(self) -> Optional[float]:
        """CPI relative standard error ``s_h / (sqrt(n_h) * mean_h)``.

        Relative error of the stratum-mean CPI equals the relative error of
        the fast-forwarded cycles (cycles are linear in CPI).  ``None``
        below 2 samples.
        """
        if self.count < 2 or self.cpi_mean <= 0:
            return None
        return self.std() / (math.sqrt(self.count) * self.cpi_mean)

    def relative_half_width(self) -> Optional[float]:
        """Student-t 95% half-width of the stratum mean, relative to it."""
        rse = self.relative_standard_error()
        if rse is None:
            return None
        return t_critical_95(self.count - 1) * rse

    def reset_samples(self) -> None:
        """Discard samples and allocation (resampling trigger)."""
        self.target = self.pilot_target
        self.decided_detailed = 0
        self.count = 0
        self.cpi_mean = 0.0
        self.cpi_m2 = 0.0


@dataclass
class StratifiedStatistics(TaskPointStatistics):
    """TaskPoint-shaped counters plus the stratified engine's CI state.

    Extends :class:`~repro.core.controller.TaskPointStatistics` so everything
    that consumes sampling statistics (``ExperimentResult.from_simulation``,
    the accuracy analysis, result metadata) accepts it unchanged; the extra
    state feeds :meth:`confidence_summary`.
    """

    num_strata: int = 0
    pilot_target_total: int = 0
    budget_instances: int = 0
    allocations: int = 0
    strata: List[StratumState] = field(default_factory=list)

    def confidence_summary(self, total_cycles: float) -> Optional[Dict[str, object]]:
        """95% CI of the estimated execution time, as a JSON-friendly dict.

        Each stratum's fast-forwarded cycles carry the Student-t-scaled
        relative standard error of its mean CPI, combined across strata by
        :func:`repro.core.history.combined_confidence`.  Strata that
        fast-forwarded without at least two samples fall back to the widest
        error (conservative).  Returns ``None`` when nothing was
        fast-forwarded (the estimate is exact — a detailed run).
        """
        return combined_confidence(
            total_cycles,
            (
                (stratum.ff_cycles, stratum.relative_half_width())
                for stratum in self.strata
                if stratum.ff_cycles > 0
            ),
            num_strata=self.num_strata,
            sampled_strata=sum(1 for s in self.strata if s.count >= 2),
        )


def build_strata(columns, strata_per_type: int, min_stratum_size: int) -> np.ndarray:
    """Assign every trace record to a stratum (phase 1).

    Within each task type, records are ranked by a composite of their
    normalised signature-column ranks (instructions, block geometry, memory
    events and accesses, dependency fan-in/out) and split into equal-frequency
    bins — at most ``strata_per_type``, fewer when the type has less than
    ``min_stratum_size`` instances per stratum.  Returns an ``int64`` array
    mapping record index to a globally unique stratum id; ids are dense and
    deterministic (types in interned order, bins in ascending score order).
    """
    signatures = columns.instance_signatures()
    type_ids = columns.task_type_id
    stratum_of = np.zeros(columns.num_records, dtype=np.int64)
    next_stratum = 0
    for type_id in range(len(columns.types)):
        members = np.nonzero(type_ids == type_id)[0]
        m = members.size
        if m == 0:
            continue
        bins = min(strata_per_type, max(1, m // min_stratum_size))
        if bins <= 1:
            stratum_of[members] = next_stratum
            next_stratum += 1
            continue
        # Composite score: mean of per-column normalised ranks.  Rank-based
        # so no column dominates by scale, deterministic under ties (stable
        # argsort on record order).
        score = np.zeros(m, dtype=np.float64)
        sub = signatures[members]
        for column in range(sub.shape[1]):
            values = sub[:, column]
            if values.max() == values.min():
                continue  # constant column carries no information
            order = np.argsort(values, kind="stable")
            ranks = np.empty(m, dtype=np.float64)
            ranks[order] = np.arange(m, dtype=np.float64)
            score += ranks / (m - 1)
        # Equal-frequency bins of the composite score (again rank-based:
        # every bin gets m/bins members up to rounding, never empty).
        order = np.argsort(score, kind="stable")
        ranks = np.empty(m, dtype=np.int64)
        ranks[order] = np.arange(m, dtype=np.int64)
        stratum_of[members] = next_stratum + (ranks * bins) // m
        next_stratum += bins
    return stratum_of


class StratifiedController(SamplingController):
    """Mode controller implementing two-phase stratified sampling.

    Implements the :class:`repro.sim.modes.ModeController` interface, so it
    plugs into :class:`repro.sim.simulator.TaskSimSimulator` exactly like
    :class:`~repro.core.controller.TaskPointController`.

    Parameters
    ----------
    trace:
        The application trace about to be simulated (or its
        :class:`~repro.trace.columns.TraceColumns`); phase 1 profiles its
        columnar signatures at construction time.
    config:
        Engine parameters; ``None`` selects the defaults.
    """

    def __init__(self, trace, config: Optional[StratifiedConfig] = None) -> None:
        super().__init__(config if config is not None else StratifiedConfig())
        columns = getattr(trace, "columns", trace)
        self._columns = columns
        # ---- Phase 1: profile + stratify (no simulation) ----
        self._stratum_of = build_strata(
            columns, self.config.strata_per_type, self.config.min_stratum_size
        )
        self._profiled_types = set(columns.types.names)
        num_strata = int(self._stratum_of.max()) + 1 if columns.num_records else 0
        sizes = np.bincount(self._stratum_of, minlength=num_strata)
        type_names = columns.types.names
        stratum_type = [""] * num_strata
        if columns.num_records:
            # The type of a stratum is the type of any member (strata never
            # span types).
            first_member = np.full(num_strata, -1, dtype=np.int64)
            reversed_ids = self._stratum_of[::-1]
            first_member[reversed_ids] = np.arange(columns.num_records)[::-1]
            for stratum_id in range(num_strata):
                member = int(first_member[stratum_id])
                stratum_type[stratum_id] = type_names[
                    int(columns.task_type_id[member])
                ]
        self.strata: List[StratumState] = [
            StratumState(
                stratum_id=stratum_id,
                task_type=stratum_type[stratum_id],
                size=int(sizes[stratum_id]),
                pilot_target=min(self.config.pilot_samples, int(sizes[stratum_id])),
            )
            for stratum_id in range(num_strata)
        ]
        self._type_cpi: Dict[str, List[float]] = {}  # [cpi sum, count] per type

        self.stats = StratifiedStatistics(
            num_strata=num_strata,
            pilot_target_total=sum(s.pilot_target for s in self.strata),
            budget_instances=max(1, int(round(self.config.budget * columns.num_records)))
            if columns.num_records
            else 0,
            strata=self.strata,
        )

        # ---- Phase 2 runtime state ----
        self.allocated = False
        self._detailed_decided = 0
        # Detailed instances in flight across a resample must not feed the
        # fresh stratum statistics (they were decided under the discarded
        # conditions — e.g. the old thread count).  Decisions are stamped
        # with the resample epoch; a mismatch on completion makes the sample
        # invalid, mirroring TaskPoint's invalid-sample handling.
        self._epoch = 0
        self._decision_epoch: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Resampling and allocation
    # ------------------------------------------------------------------
    def _discard_samples(self) -> None:
        """Discard stratum samples *and* the Neyman allocation; re-pilot.

        The allocation was computed from the discarded samples, so keeping it
        would steer the fresh budget by stale variances — everything phase-2
        goes back to its pilot state and the allocation is recomputed from
        the new samples.
        """
        for stratum in self.strata:
            stratum.reset_samples()
        self.allocated = False
        self._detailed_decided = 0
        self._epoch += 1

    def _pilot_complete(self) -> bool:
        return all(
            stratum.decided_detailed >= stratum.pilot_target
            for stratum in self.strata
        )

    def _allocate(self, active_workers: int) -> None:
        """Neyman allocation of the remaining detailed budget.

        Each stratum's share of the remaining budget is proportional to
        ``N_h * s_h`` (size times unbiased standard deviation of its pilot
        CPI samples).  Two degeneracies are handled so the budget the user
        asked for is actually spent: when *every* stratum shows zero pilot
        variance the Neyman weights collapse and the allocation degrades to
        the proportional one (weights = remaining capacity); and a share
        exceeding its stratum's capacity is capped with the overflow
        re-distributed over the strata that still have room.  Integer shares
        are distributed by largest remainder, so the allocation is
        deterministic and sums exactly.
        """
        for stratum in self.strata:
            stratum.target = min(stratum.size, stratum.decided_detailed)
        remaining = self.stats.budget_instances - self._detailed_decided
        while remaining > 0:
            active = [s for s in self.strata if s.target < s.size]
            if not active:
                break
            weights = [(s.size - s.target) * s.std() for s in active]
            if sum(weights) == 0:
                weights = [float(s.size - s.target) for s in active]
            total_weight = sum(weights)
            raw = [remaining * weight / total_weight for weight in weights]
            shares = [int(share) for share in raw]
            leftovers = sorted(
                range(len(raw)),
                key=lambda index: (-(raw[index] - shares[index]), index),
            )
            for index in leftovers[: remaining - sum(shares)]:
                shares[index] += 1
            granted = 0
            for stratum, share in zip(active, shares):
                extra = min(share, stratum.size - stratum.target)
                stratum.target += extra
                granted += extra
            remaining -= granted
            if granted == 0:
                break
        self.allocated = True
        self.stats.allocations += 1
        self.stats.transitions_to_fast += 1
        self._arm_thread_trigger(active_workers)

    # ------------------------------------------------------------------
    # Fast-forward IPC
    # ------------------------------------------------------------------
    def _fast_forward_ipc(self, stratum: StratumState, task_type: str) -> Optional[float]:
        """Stratum harmonic-mean IPC, falling back to the type-level one."""
        ipc = stratum.fast_forward_ipc()
        if ipc is not None:
            return ipc
        aggregate = self._type_cpi.get(task_type)
        if aggregate is not None and aggregate[1] > 0 and aggregate[0] > 0:
            self.stats.fallback_estimates += 1
            return aggregate[1] / aggregate[0]
        return None

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
        task_type = instance.task_type.name
        if (
            not 0 <= instance_id < self._stratum_of.shape[0]
            or task_type not in self._profiled_types
        ):
            # The instance was not part of the profiled trace (unprofiled
            # task type / foreign trace): the stratification does not cover
            # it.  Simulate it in detail and, if configured, discard the
            # per-stratum statistics the same way TaskPoint reacts to an
            # unsampled type.
            if self.config.resample_on_new_task_type:
                self._trigger_resample(ResampleReason.NEW_TASK_TYPE)
            return self._issue_detailed(None, instance_id, worker_id)

        stratum = self.strata[int(self._stratum_of[instance_id])]

        if self._remaining_warmup(worker_id) > 0:
            return self._issue_detailed(stratum, instance_id, worker_id)

        if self.allocated and self._thread_count_changed(active_workers):
            self._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
            return self._issue_detailed(stratum, instance_id, worker_id)

        if not self.allocated and self._pilot_complete():
            self._allocate(active_workers)

        if stratum.decided_detailed < stratum.target:
            return self._issue_detailed(stratum, instance_id, worker_id)

        # Budget saturation: when the unspent budget covers every instance
        # that has not been decided yet, estimating gains nothing — spend
        # the budget the caller asked for (budget=1.0 degrades to a fully
        # detailed run even though allocation happens mid-run).
        undecided = (
            self._stratum_of.shape[0]
            - self._detailed_decided
            - self.stats.fast_forwarded
        )
        if self.stats.budget_instances - self._detailed_decided >= undecided:
            return self._issue_detailed(stratum, instance_id, worker_id)

        ipc = self._fast_forward_ipc(stratum, task_type)
        if ipc is None:
            # Nothing measured for this stratum or its type yet (its pilot
            # decisions are still in flight): impossible to fast-forward.
            if stratum.count == 0:
                self._trigger_resample(ResampleReason.EMPTY_HISTORY)
            return self._issue_detailed(stratum, instance_id, worker_id)
        stratum.fast_forwarded += 1
        self.stats.fast_forwarded += 1
        return burst_decision(ipc)

    def _issue_detailed(
        self,
        stratum: Optional[StratumState],
        instance_id: int,
        worker_id: int,
    ) -> ModeDecision:
        """Issue a detailed decision with budget and pilot accounting.

        Warm-up instances consume budget but never count toward a stratum's
        pilot/allocation target — their IPCs are excluded from the stratum
        estimator (cold-cache biased), so counting them would let a stratum
        look piloted with zero usable samples.
        """
        self._detailed_decided += 1
        decision = self._detailed_decision(worker_id)
        if decision.is_warmup:
            return decision
        if stratum is not None:
            stratum.decided_detailed += 1
        self._decision_epoch[instance_id] = self._epoch
        return decision

    def notify_completion(self, info: CompletionInfo) -> None:
        """Fold a completed instance into stratum statistics."""
        instance_id = info.instance.instance_id
        in_profile = 0 <= instance_id < self._stratum_of.shape[0]
        stratum = (
            self.strata[int(self._stratum_of[instance_id])] if in_profile else None
        )
        if info.mode is not SimulationMode.DETAILED:
            if stratum is not None:
                stratum.ff_cycles += info.cycles
            return
        is_warmup = self._account_warmup(info)
        if info.ipc > 0:
            # Every measured IPC feeds the type-level fallback mean.
            aggregate = self._type_cpi.setdefault(info.instance.task_type.name, [0.0, 0])
            aggregate[0] += 1.0 / info.ipc
            aggregate[1] += 1
        if is_warmup:
            # Warm-up IPCs are cold-cache biased: never a stratum sample.
            return
        epoch = self._decision_epoch.pop(instance_id, self._epoch)
        if stratum is None or epoch != self._epoch or info.ipc <= 0:
            # Out of profile, decided before a resample discarded the
            # conditions it was decided under, or no forward progress
            # measured: not a stratum sample.
            self.stats.invalid_samples += 1
            return
        stratum.observe(info.ipc)
        self.stats.valid_samples += 1
