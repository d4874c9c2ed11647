"""Execution-time error and simulation speedup (Figures 7-10, summary).

The paper's accuracy metric is the absolute relative difference between the
execution time predicted by the sampled simulation and the execution time of
a full detailed simulation of the same workload, architecture and thread
count; its performance metric is the simulation speedup of the sampled run
over the detailed run.  This module expresses those experiment pairs as
:class:`~repro.exp.spec.ExperimentSpec` grids submitted to the experiment
orchestrator (:func:`repro.exp.run_experiments`), which deduplicates the
shared detailed baselines, optionally runs the grid on a process pool and
caches every result persistently.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.arch.config import ArchitectureConfig
from repro.core.api import compare_with_detailed
from repro.core.config import TaskPointConfig
from repro.exp.backends import ExecutionBackend, Store, run_experiments
from repro.exp.spec import ExperimentResult, ExperimentSpec, SamplingConfig
from repro.trace.trace import ApplicationTrace


@dataclass(frozen=True)
class AccuracyResult:
    """Error/speedup of one (benchmark, architecture, threads) experiment.

    The ``ci_*`` fields are only populated for sampling modes that report a
    confidence interval (the stratified and fidelity engines); they stay
    ``None`` for TaskPoint's periodic/lazy modes.  ``ci_covers_detailed`` is
    the headline check — whether the reported 95% interval contains the
    detailed-mode execution time the sampled run is estimating.  The
    ``error_budget_percent``/``within_budget`` pair is populated only for
    fidelity-mode runs: the budget the controller was asked to meet and
    whether the achieved error met it.
    """

    benchmark: str
    architecture: str
    num_threads: int
    error_percent: float
    speedup: float
    wall_speedup: Optional[float]
    detailed_cycles: float
    sampled_cycles: float
    detailed_fraction: float
    resamples: int
    ci_half_width_percent: Optional[float] = None
    ci_lower_cycles: Optional[float] = None
    ci_upper_cycles: Optional[float] = None
    ci_covers_detailed: Optional[bool] = None
    error_budget_percent: Optional[float] = None
    within_budget: Optional[bool] = None


@dataclass(frozen=True)
class AccuracySummary:
    """Aggregate over a set of accuracy results (one figure's 'average' bar).

    ``ci_coverage`` and ``average_ci_half_width_percent`` aggregate the
    confidence intervals of results that carry one; both are ``None`` when no
    result in the set does (periodic/lazy grids).  ``budget_hit_rate`` is the
    fraction of fidelity-mode rows whose achieved error stayed within the
    declared error budget (``None`` outside fidelity grids).
    """

    average_error_percent: float
    median_error_percent: float
    max_error_percent: float
    average_speedup: float
    min_speedup: float
    max_speedup: float
    count: int
    ci_coverage: Optional[float] = None
    average_ci_half_width_percent: Optional[float] = None
    budget_hit_rate: Optional[float] = None


def evaluate_benchmark(
    trace: ApplicationTrace,
    num_threads: int,
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[SamplingConfig] = None,
    scheduler_seed: int = 0,
) -> AccuracyResult:
    """Run the detailed-versus-sampled comparison for one in-memory trace.

    This is the single-experiment convenience path for traces that exist only
    in memory (e.g. custom workloads); grids of named benchmarks should go
    through :func:`evaluate_grid` / :func:`evaluate_specs` instead, which
    parallelise and cache.
    """
    comparison = compare_with_detailed(
        trace,
        num_threads=num_threads,
        architecture=architecture,
        config=config,
        scheduler_seed=scheduler_seed,
    )
    stats = comparison.taskpoint_stats
    return _accuracy_row(
        comparison.sampled,
        comparison.detailed,
        resamples=stats.resamples,
        confidence=comparison.sampled.metadata.get("confidence"),
        error_budget=getattr(stats, "error_budget", None),
    )


def accuracy_from_experiments(
    sampled: ExperimentResult, detailed: ExperimentResult
) -> AccuracyResult:
    """Combine a sampled run and its detailed baseline into an accuracy row."""
    taskpoint = sampled.taskpoint or {}
    fidelity = taskpoint.get("fidelity")
    return _accuracy_row(
        sampled,
        detailed,
        resamples=sampled.resamples,
        confidence=taskpoint.get("confidence"),
        error_budget=fidelity["error_budget"] if fidelity else None,
    )


def _accuracy_row(
    sampled, detailed, resamples: int, confidence, error_budget
) -> AccuracyResult:
    """The accuracy row of a sampled run against its detailed baseline.

    ``sampled`` and ``detailed`` are both
    :class:`~repro.sim.results.SimulationResult` or both
    :class:`ExperimentResult`.  ``confidence`` is the sampled run's 95%
    interval block and ``error_budget`` the fidelity engine's budget (a
    fraction); each is ``None`` for the engines that report none.
    """
    ci_half_width = ci_lower = ci_upper = None
    ci_covers = None
    if confidence:
        ci_half_width = float(confidence["half_width_percent"])
        ci_lower = float(confidence["lower_cycles"])
        ci_upper = float(confidence["upper_cycles"])
        ci_covers = ci_lower <= detailed.total_cycles <= ci_upper
    budget_percent = None
    within_budget = None
    error_percent = float(sampled.error_versus(detailed) * 100.0)
    if error_budget is not None:
        budget_percent = float(error_budget) * 100.0
        within_budget = bool(error_percent <= budget_percent)
    return AccuracyResult(
        benchmark=sampled.benchmark,
        architecture=sampled.architecture,
        num_threads=sampled.num_threads,
        error_percent=error_percent,
        speedup=sampled.speedup_versus(detailed),
        wall_speedup=sampled.wall_speedup_versus(detailed),
        detailed_cycles=detailed.total_cycles,
        sampled_cycles=sampled.total_cycles,
        detailed_fraction=sampled.cost.detailed_fraction,
        resamples=resamples,
        ci_half_width_percent=ci_half_width,
        ci_lower_cycles=ci_lower,
        ci_upper_cycles=ci_upper,
        ci_covers_detailed=ci_covers,
        error_budget_percent=budget_percent,
        within_budget=within_budget,
    )


def evaluate_specs(
    specs: Sequence[ExperimentSpec],
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
    on_error: str = "raise",
) -> List[AccuracyResult]:
    """Evaluate sampled experiment specs against their detailed baselines.

    Every spec must describe a sampled experiment; its baseline spec is
    derived automatically and the whole set — sampled runs plus deduplicated
    baselines — is submitted to the orchestrator in one batch, so arbitrary
    grids (multi-architecture, multi-scheduler, multi-seed) are a one-liner.

    ``on_error="skip"`` drops the rows whose sampled run or baseline failed
    (the failures are still recorded in the store by the orchestrator)
    instead of raising, so one broken workload does not take down a whole
    figure.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    submitted: List[ExperimentSpec] = []
    for spec in specs:
        if spec.is_detailed:
            raise ValueError(
                f"evaluate_specs expects sampled experiment specs, got detailed"
                f" baseline {spec.label()!r}"
            )
        submitted.append(spec)
        submitted.append(spec.baseline())
    results = run_experiments(
        submitted,
        backend=backend,
        store=store,
        on_error="raise" if on_error == "raise" else "record",
    )
    return [
        accuracy_from_experiments(results[index], results[index + 1])
        for index in range(0, len(results), 2)
        if results[index] is not None and results[index + 1] is not None
    ]


def grid_specs(
    benchmarks: Sequence[str],
    thread_counts: Sequence[int],
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[SamplingConfig] = None,
    scale: float = 0.08,
    seed: int = 1,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
) -> List[ExperimentSpec]:
    """Sampled specs for every (benchmark, thread count) pair of one figure.

    ``config`` may be a :class:`TaskPointConfig` (periodic/lazy sampling,
    the default), a :class:`repro.core.config.StratifiedConfig` or a
    :class:`repro.core.config.FidelityConfig`.
    """
    config = config if config is not None else TaskPointConfig()
    return [
        ExperimentSpec(
            benchmark=name,
            num_threads=threads,
            scale=scale,
            trace_seed=seed,
            architecture=architecture,
            config=config,
            scheduler=scheduler,
            scheduler_seed=scheduler_seed,
        )
        for name in benchmarks
        for threads in thread_counts
    ]


def evaluate_grid(
    benchmarks: Sequence[str],
    thread_counts: Sequence[int],
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[SamplingConfig] = None,
    scale: float = 0.08,
    seed: int = 1,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
) -> List[AccuracyResult]:
    """Evaluate every (benchmark, thread count) pair of one figure.

    Parameters
    ----------
    benchmarks:
        Benchmark names (Table I names).
    thread_counts:
        Simulated thread counts (e.g. ``[8, 16, 32, 64]`` for Figure 7).
    architecture:
        Architecture configuration; defaults to the high-performance one.
    config:
        Sampling configuration: a :class:`TaskPointConfig` (periodic P=250
        or lazy), a :class:`repro.core.config.StratifiedConfig` or a
        :class:`repro.core.config.FidelityConfig`; defaults to the paper's
        periodic configuration.
    scale:
        Workload scale passed to the generators (fraction of Table I's
        instance counts).
    seed:
        Trace-generation seed.
    scheduler / scheduler_seed:
        Dynamic scheduling policy of the simulated runtime.
    backend:
        Execution backend (e.g. ``ProcessPoolBackend(max_workers=4)``);
        defaults to serial in-process execution.
    store:
        Optional result store; a warm store re-runs the grid without a
        single new simulation.
    """
    specs = grid_specs(
        benchmarks,
        thread_counts,
        architecture=architecture,
        config=config,
        scale=scale,
        seed=seed,
        scheduler=scheduler,
        scheduler_seed=scheduler_seed,
    )
    return evaluate_specs(specs, backend=backend, store=store)


def summarize(results: Iterable[AccuracyResult]) -> AccuracySummary:
    """Aggregate a set of accuracy results into the figure-level summary."""
    results = list(results)
    if not results:
        raise ValueError("cannot summarise an empty result set")
    errors = [result.error_percent for result in results]
    speedups = [result.speedup for result in results]
    with_ci = [r for r in results if r.ci_covers_detailed is not None]
    ci_coverage = None
    average_ci_half_width = None
    if with_ci:
        ci_coverage = sum(1 for r in with_ci if r.ci_covers_detailed) / len(with_ci)
        average_ci_half_width = sum(
            r.ci_half_width_percent for r in with_ci
        ) / len(with_ci)
    with_budget = [r for r in results if r.within_budget is not None]
    budget_hit_rate = None
    if with_budget:
        budget_hit_rate = sum(1 for r in with_budget if r.within_budget) / len(
            with_budget
        )
    return AccuracySummary(
        average_error_percent=sum(errors) / len(errors),
        median_error_percent=statistics.median(errors),
        max_error_percent=max(errors),
        average_speedup=sum(speedups) / len(speedups),
        min_speedup=min(speedups),
        max_speedup=max(speedups),
        count=len(results),
        ci_coverage=ci_coverage,
        average_ci_half_width_percent=average_ci_half_width,
        budget_hit_rate=budget_hit_rate,
    )


def group_by_threads(results: Iterable[AccuracyResult]) -> Dict[int, AccuracySummary]:
    """Summaries keyed by thread count (the per-colour averages of Fig. 7-10)."""
    buckets: Dict[int, List[AccuracyResult]] = {}
    for result in results:
        buckets.setdefault(result.num_threads, []).append(result)
    return {threads: summarize(bucket) for threads, bucket in sorted(buckets.items())}
