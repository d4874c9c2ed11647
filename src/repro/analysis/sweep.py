"""Parameter sensitivity sweeps (Figure 6).

The paper determines the TaskPoint model parameters incrementally: first the
warm-up interval W (with H=10 and P=∞), then the history size H (with W=2 and
P=∞), then the sampling period P (with W=2 and H=4).  Each sweep reports
error and speedup averaged over the sensitivity benchmark subset and over
simulations with 32 and 64 threads.

Every sweep builds one flat list of experiment specs — all parameter values ×
benchmarks × thread counts — and submits it to the experiment orchestrator in
a single batch.  The detailed baselines are shared between all parameter
values (they do not depend on W, H or P), so the orchestrator's content-key
deduplication simulates each baseline exactly once per sweep, and the async
workers parallelise the whole sweep at spec granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.accuracy import evaluate_specs, grid_specs
from repro.arch.config import ArchitectureConfig
from repro.core.config import TaskPointConfig
from repro.exp.backends import ExecutionBackend, Store
from repro.workloads.registry import SENSITIVITY_SUBSET


@dataclass(frozen=True)
class SweepPoint:
    """Average error/speedup of one parameter value."""

    parameter: str
    value: object
    average_error_percent: float
    average_speedup: float
    experiments: int


def _sweep(
    parameter: str,
    configs: Sequence[Tuple[object, TaskPointConfig]],
    benchmarks: Sequence[str],
    thread_counts: Sequence[int],
    architecture: Optional[ArchitectureConfig],
    scale: float,
    seed: int,
    backend: Optional[ExecutionBackend],
    store: Optional[Store],
) -> List[SweepPoint]:
    specs = []
    for _, config in configs:
        specs.extend(
            grid_specs(
                benchmarks,
                thread_counts,
                architecture=architecture,
                config=config,
                scale=scale,
                seed=seed,
            )
        )
    results = evaluate_specs(specs, backend=backend, store=store)
    per_value = len(benchmarks) * len(thread_counts)
    points: List[SweepPoint] = []
    for index, (value, _) in enumerate(configs):
        chunk = results[index * per_value:(index + 1) * per_value]
        errors = [result.error_percent for result in chunk]
        speedups = [result.speedup for result in chunk]
        points.append(
            SweepPoint(
                parameter=parameter,
                value=value,
                average_error_percent=sum(errors) / len(errors),
                average_speedup=sum(speedups) / len(speedups),
                experiments=len(chunk),
            )
        )
    return points


def warmup_sweep(
    warmup_values: Sequence[int] = (0, 1, 2, 4, 6, 8, 10),
    benchmarks: Sequence[str] = tuple(SENSITIVITY_SUBSET),
    thread_counts: Sequence[int] = (32, 64),
    architecture: Optional[ArchitectureConfig] = None,
    history_size: int = 10,
    scale: float = 0.08,
    seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
) -> List[SweepPoint]:
    """Figure 6a: error/speedup for different warm-up sizes W (H=10, P=∞)."""
    configs = [
        (w, TaskPointConfig(warmup_instances=w, history_size=history_size, sampling_period=None))
        for w in warmup_values
    ]
    return _sweep("W", configs, benchmarks, thread_counts, architecture, scale, seed,
                  backend, store)


def history_sweep(
    history_values: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    benchmarks: Sequence[str] = tuple(SENSITIVITY_SUBSET),
    thread_counts: Sequence[int] = (32, 64),
    architecture: Optional[ArchitectureConfig] = None,
    warmup_instances: int = 2,
    scale: float = 0.08,
    seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
) -> List[SweepPoint]:
    """Figure 6b: error/speedup for different history sizes H (W=2, P=∞)."""
    configs = [
        (h, TaskPointConfig(warmup_instances=warmup_instances, history_size=h, sampling_period=None))
        for h in history_values
    ]
    return _sweep("H", configs, benchmarks, thread_counts, architecture, scale, seed,
                  backend, store)


def period_sweep(
    period_values: Sequence[int] = (10, 25, 50, 100, 250, 500, 1000),
    benchmarks: Sequence[str] = tuple(SENSITIVITY_SUBSET),
    thread_counts: Sequence[int] = (32, 64),
    architecture: Optional[ArchitectureConfig] = None,
    warmup_instances: int = 2,
    history_size: int = 4,
    scale: float = 0.08,
    seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
) -> List[SweepPoint]:
    """Figure 6c: error/speedup for different sampling periods P (W=2, H=4)."""
    configs = [
        (
            p,
            TaskPointConfig(
                warmup_instances=warmup_instances,
                history_size=history_size,
                sampling_period=p,
            ),
        )
        for p in period_values
    ]
    return _sweep("P", configs, benchmarks, thread_counts, architecture, scale, seed,
                  backend, store)
