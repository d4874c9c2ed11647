"""Convenience API for running sampled simulations.

These helpers wire the sampling engines into the TaskSim-style simulator
and provide the comparison against full detailed simulation that the paper's
evaluation (and this repository's benchmark harness) is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.arch.config import ArchitectureConfig
from repro.core.config import FidelityConfig, StratifiedConfig, TaskPointConfig
from repro.core.controller import TaskPointController, TaskPointStatistics
from repro.core.fidelity import FidelityController
from repro.core.stratified import StratifiedController
from repro.sim.results import SimulationResult
from repro.sim.simulator import TaskSimSimulator
from repro.trace.trace import ApplicationTrace


def sampled_simulation(
    trace: ApplicationTrace,
    num_threads: int = 8,
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[Union[TaskPointConfig, StratifiedConfig, FidelityConfig]] = None,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
) -> SimulationResult:
    """Simulate ``trace`` under a sampling engine and return the result.

    The config's type picks the engine: TaskPoint (a
    :class:`TaskPointConfig`, or ``None`` for the defaults), two-phase
    stratified sampling (:class:`StratifiedConfig`) or the online
    error-budget fidelity controller (:class:`FidelityConfig`).

    The run's sampling statistics (warm-up instances, valid samples,
    fast-forwarded instances, resamples, ...) are attached to the result's
    metadata under ``"taskpoint"``.  Engines that estimate their own error
    also attach the 95% confidence interval of the execution-time estimate
    under ``"confidence"`` (``None`` when nothing was fast-forwarded).
    """
    if isinstance(config, StratifiedConfig):
        controller = StratifiedController(trace, config=config)
    elif isinstance(config, FidelityConfig):
        controller = FidelityController(trace, config=config)
    else:
        controller = TaskPointController(config=config)
    simulator = TaskSimSimulator(
        architecture=architecture, scheduler=scheduler, scheduler_seed=scheduler_seed
    )
    result = simulator.run(trace, num_threads=num_threads, controller=controller)
    result.metadata["taskpoint"] = controller.stats
    confidence = getattr(controller.stats, "confidence_summary", None)
    if confidence is not None:
        result.metadata["confidence"] = confidence(result.total_cycles)
    return result


@dataclass(frozen=True)
class SampledVersusDetailed:
    """Outcome of comparing a sampled simulation with full detailed simulation."""

    benchmark: str
    architecture: str
    num_threads: int
    detailed: SimulationResult
    sampled: SimulationResult
    taskpoint_stats: TaskPointStatistics

    @property
    def error(self) -> float:
        """Absolute relative execution-time error (fraction)."""
        return self.sampled.error_versus(self.detailed)

    @property
    def error_percent(self) -> float:
        """Absolute relative execution-time error in percent."""
        return self.error * 100.0

    @property
    def speedup(self) -> float:
        """Deterministic (cost-model) simulation speedup."""
        return self.sampled.speedup_versus(self.detailed)

    @property
    def wall_speedup(self) -> Optional[float]:
        """Wall-clock simulation speedup, if both runs were timed."""
        return self.sampled.wall_speedup_versus(self.detailed)


def compare_with_detailed(
    trace: ApplicationTrace,
    num_threads: int = 8,
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[Union[TaskPointConfig, StratifiedConfig, FidelityConfig]] = None,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
) -> SampledVersusDetailed:
    """Run full detailed and sampled simulations of ``trace``.

    This is the core experiment of the paper: the detailed run provides the
    reference execution time and the reference simulation cost; the sampled
    run — :func:`sampled_simulation` under ``config``, so any of the three
    engines — provides the estimate whose error and speedup are reported.
    """
    simulator = TaskSimSimulator(
        architecture=architecture, scheduler=scheduler, scheduler_seed=scheduler_seed
    )
    detailed = simulator.run(trace, num_threads=num_threads, controller=None)
    sampled = sampled_simulation(
        trace, num_threads=num_threads, architecture=simulator.architecture,
        config=config, scheduler=scheduler, scheduler_seed=scheduler_seed,
    )
    return SampledVersusDetailed(
        benchmark=trace.name,
        architecture=simulator.architecture.name,
        num_threads=num_threads,
        detailed=detailed,
        sampled=sampled,
        taskpoint_stats=sampled.metadata["taskpoint"],
    )
