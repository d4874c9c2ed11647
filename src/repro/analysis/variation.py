"""Per-task-type IPC variation analysis (Figures 1 and 5).

The paper motivates TaskPoint by showing that the IPC of task instances is
regular *within a task type*: for 15 of the 19 benchmarks the normalized IPC
of all instances stays within ±5% of their type's mean.  This module computes
exactly the statistics the paper plots: per-benchmark box plots of the IPC of
every task instance normalized to the mean IPC of its task type (quartiles,
5th/95th percentile whiskers, extreme outliers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.arch.config import ArchitectureConfig
from repro.exp.backends import ExecutionBackend, Store, run_experiments
from repro.exp.spec import ExperimentResult, ExperimentSpec
from repro.sim.results import SimulationResult

#: Either a full simulation result or a condensed, stored experiment result;
#: both expose ``benchmark``, ``num_threads`` and ``ipc_by_type()``.
MeasuredResult = Union[SimulationResult, ExperimentResult]


@dataclass(frozen=True)
class BoxPlotStats:
    """The statistics one box plot of Figure 1 / Figure 5 encodes.

    Values are normalized IPC deviations in percent (0 means the instance ran
    exactly at its task type's mean IPC).
    """

    minimum: float
    percentile_5: float
    quartile_1: float
    median: float
    quartile_3: float
    percentile_95: float
    maximum: float
    count: int

    @property
    def whisker_range(self) -> float:
        """Distance between the 5th and 95th percentile (the whisker span)."""
        return self.percentile_95 - self.percentile_5

    @property
    def within_5_percent(self) -> bool:
        """``True`` if the whiskers stay within +/-5% (the paper's criterion)."""
        return self.percentile_95 <= 5.0 and self.percentile_5 >= -5.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxPlotStats":
        """Compute the statistics from normalized IPC deviations (percent)."""
        if len(values) == 0:
            raise ValueError("cannot compute box-plot statistics of an empty sample")
        array = np.asarray(values, dtype=float)
        return cls(
            minimum=float(array.min()),
            percentile_5=float(np.percentile(array, 5)),
            quartile_1=float(np.percentile(array, 25)),
            median=float(np.percentile(array, 50)),
            quartile_3=float(np.percentile(array, 75)),
            percentile_95=float(np.percentile(array, 95)),
            maximum=float(array.max()),
            count=int(array.size),
        )


@dataclass(frozen=True)
class TypeVariation:
    """IPC statistics of one task type."""

    task_type: str
    mean_ipc: float
    count: int
    coefficient_of_variation: float


@dataclass(frozen=True)
class VariationReport:
    """Variation analysis of one benchmark run."""

    benchmark: str
    num_threads: int
    box: BoxPlotStats
    per_type: List[TypeVariation]

    @property
    def within_5_percent(self) -> bool:
        """Paper's classification: does variation stay within +/-5%?"""
        return self.box.within_5_percent


def normalized_deviations(result: MeasuredResult) -> List[float]:
    """Normalized IPC deviations (percent) of all measured task instances.

    Each detailed, non-warm-up instance's IPC is normalized to the mean IPC
    of its task type; the returned values are ``(ipc / mean - 1) * 100``.
    """
    deviations: List[float] = []
    for task_type, values in result.ipc_by_type(detailed_only=True).items():
        if not values:
            continue
        mean = sum(values) / len(values)
        if mean <= 0:
            continue
        deviations.extend((value / mean - 1.0) * 100.0 for value in values)
    return deviations


def ipc_variation(result: MeasuredResult) -> VariationReport:
    """Compute the Figure 1 / Figure 5 statistics for one simulation result.

    Accepts either a live :class:`~repro.sim.results.SimulationResult` or a
    condensed :class:`~repro.exp.spec.ExperimentResult` coming out of the
    experiment orchestrator's result store.
    """
    per_type: List[TypeVariation] = []
    for task_type, values in sorted(result.ipc_by_type(detailed_only=True).items()):
        if not values:
            continue
        array = np.asarray(values, dtype=float)
        mean = float(array.mean())
        cv = float(array.std() / mean) if mean > 0 else 0.0
        per_type.append(
            TypeVariation(
                task_type=task_type,
                mean_ipc=mean,
                count=int(array.size),
                coefficient_of_variation=cv,
            )
        )
    deviations = normalized_deviations(result)
    if not deviations:
        raise ValueError(
            "simulation result contains no detailed task instances to analyse"
        )
    return VariationReport(
        benchmark=result.benchmark,
        num_threads=result.num_threads,
        box=BoxPlotStats.from_values(deviations),
        per_type=per_type,
    )


def variation_grid(
    benchmarks: Sequence[str],
    num_threads: int = 8,
    architecture: Optional[ArchitectureConfig] = None,
    scale: float = 0.08,
    seed: int = 1,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
) -> Dict[str, VariationReport]:
    """Variation reports for a set of benchmarks, keyed by benchmark name.

    The detailed runs the analysis needs are expressed as experiment specs
    and submitted to the orchestrator, so they parallelise across async
    workers, hit the persistent result store, and are shared with any
    accuracy grid that uses the same baselines.
    """
    specs = [
        ExperimentSpec(
            benchmark=name,
            num_threads=num_threads,
            scale=scale,
            trace_seed=seed,
            architecture=architecture,
            config=None,
            scheduler=scheduler,
            scheduler_seed=scheduler_seed,
        )
        for name in benchmarks
    ]
    results = run_experiments(specs, backend=backend, store=store)
    return {result.benchmark: ipc_variation(result) for result in results}


def classification_agreement(
    native: Dict[str, VariationReport], simulated: Dict[str, VariationReport]
) -> float:
    """Fraction of benchmarks classified identically (within/over 5%).

    The paper reports that native execution and simulation agree on the
    +/-5% classification for 18 of the 19 benchmarks.
    """
    common = sorted(set(native) & set(simulated))
    if not common:
        raise ValueError("no common benchmarks between the two report sets")
    agreeing = sum(
        1
        for name in common
        if native[name].within_5_percent == simulated[name].within_5_percent
    )
    return agreeing / len(common)
