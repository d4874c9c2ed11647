"""Execution of a single :class:`~repro.exp.spec.ExperimentSpec`.

This module is the one place that turns a spec into simulator calls.  Both
execution backends (and the worker processes of the process-pool backend)
funnel through :func:`run_spec`, so serial and parallel execution are
guaranteed to run byte-identical experiments.

Trace generation is memoised per process: grids typically reuse the same
(benchmark, scale, seed) trace across many thread counts and sampling
configurations, and regenerating it for every spec would dominate the run
time.  The memo replaces the ad-hoc trace dictionaries the analysis layer
and the benchmark harnesses used to carry around.

The memo is worth more than the generation it skips: the returned trace
object carries its ``TraceColumns``, and the columns carry every lazily
built simulation artefact — the batched executor's ``ExecutionPlan`` and
the runtime's static instance lists, both memoised in
``columns.plan_cache`` keyed by model geometry.  A worker process that
receives many specs of one workload (the normal shape of a ``run_batch``
frame, and of consecutive frames of one grid) therefore pays trace
generation *and* plan construction once, and every later spec starts on a
fully warmed trace.  The memo is an explicit bounded LRU
(:class:`TraceMemo`) rather than an ``lru_cache``: long-lived worker
processes serving many differently-scaled grids would otherwise accumulate
traces without limit, and the workers report the memo's hit/eviction
counters in their ``pong`` status frames so a supervisor can see cache
behaviour.  Set ``REPRO_EXP_TRACE_MEMO=0`` to disable the memo — every
spec then regenerates (and re-warms) its trace from scratch, which is how
``scripts/dispatch_bench.py`` measures the per-spec warm-up cost the memo
removes.

Below the memo sits an optional on-disk tier, the process's trace cache
(:class:`~repro.exp.tracecache.TraceCache`): a memo miss loads the trace
from it, and only a cache miss generates the trace (and writes it back).
The memo serves one process; the cache serves every process that shares
the directory — successive ``repro grid`` calls on one result store, the
workers of a pool or of the service daemon.  :func:`use_trace_cache` sets
it for a scope (``run_experiments`` does so with its store's cache) and
names its directory in ``REPRO_TRACE_CACHE``, so every worker process
started inside the scope inherits it with the environment.  Like the memo
it is per-process state rather than an argument: every backend keeps
calling ``run_spec(spec)`` alone.
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.core.config import FidelityConfig, StratifiedConfig
from repro.core.controller import TaskPointController
from repro.core.fidelity import FidelityController
from repro.core.stratified import StratifiedController
from repro.exp.spec import ExperimentResult, ExperimentSpec
from repro.exp.tracecache import TraceCache
from repro.sim.simulator import TaskSimSimulator
from repro.trace.trace import ApplicationTrace
from repro.workloads.registry import get_workload

#: Traces kept per process; large enough for the full 19-benchmark grids.
_TRACE_CACHE_SIZE = 64

#: Set to ``0`` to disable the per-process warmed-trace memo (measurement
#: hook for the dispatch benchmark; the default is always-on).
TRACE_MEMO_ENV = "REPRO_EXP_TRACE_MEMO"

#: Directory of the process's trace cache.  :func:`use_trace_cache` sets it,
#: and child processes inherit it with the environment.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"


class TraceMemo:
    """Bounded LRU memo of generated traces with observable statistics.

    Keyed by (benchmark, scale, seed); holds at most ``capacity`` traces and
    evicts the least recently used one beyond that.  Unlike the former
    ``functools.lru_cache`` it exposes its hit/miss/eviction counters, which
    the pool workers ship home in their ``pong`` frames.
    """

    def __init__(self, capacity: int = _TRACE_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError("trace memo capacity must be >= 1")
        self.capacity = capacity
        self._traces: "OrderedDict[Tuple[str, float, int], ApplicationTrace]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, benchmark: str, scale: float, seed: int) -> ApplicationTrace:
        """Return the memoised trace, loading or generating (and possibly evicting)."""
        key = (benchmark, scale, seed)
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            self._traces.move_to_end(key)
            return trace
        self.misses += 1
        trace = _load_or_generate(benchmark, scale, seed)
        self._traces[key] = trace
        if len(self._traces) > self.capacity:
            self._traces.popitem(last=False)
            self.evictions += 1
        return trace

    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop all memoised traces (counters are kept)."""
        self._traces.clear()

    def stats(self) -> Dict[str, int]:
        """JSON-friendly snapshot of the memo counters."""
        return {
            "capacity": self.capacity,
            "entries": len(self._traces),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The per-process memo instance behind :func:`get_trace`.
_TRACE_MEMO = TraceMemo()

#: The cache object of the directory in ``REPRO_TRACE_CACHE``, kept so that
#: its counters accumulate across memo misses.
_TRACE_CACHE: Optional[TraceCache] = None


def active_trace_cache() -> Optional[TraceCache]:
    """The trace cache memo misses go through: the one ``REPRO_TRACE_CACHE`` names."""
    global _TRACE_CACHE
    directory = os.environ.get(TRACE_CACHE_ENV)
    if not directory:
        return None
    if _TRACE_CACHE is None or _TRACE_CACHE.directory != Path(directory).expanduser():
        _TRACE_CACHE = TraceCache(directory)
    return _TRACE_CACHE


@contextlib.contextmanager
def use_trace_cache(cache: Optional[TraceCache]) -> Iterator[Optional[TraceCache]]:
    """Route trace generation through ``cache`` (``None``: generate) for the body.

    The directory is exported in ``REPRO_TRACE_CACHE`` meanwhile, so worker
    processes started in the body use the same cache.
    """
    global _TRACE_CACHE
    previous_cache, previous_directory = _TRACE_CACHE, os.environ.get(TRACE_CACHE_ENV)
    _TRACE_CACHE = cache
    if cache is None:
        os.environ.pop(TRACE_CACHE_ENV, None)
    else:
        os.environ[TRACE_CACHE_ENV] = str(cache.directory)
    try:
        yield cache
    finally:
        _TRACE_CACHE = previous_cache
        if previous_directory is None:
            os.environ.pop(TRACE_CACHE_ENV, None)
        else:
            os.environ[TRACE_CACHE_ENV] = previous_directory


def _load_or_generate(benchmark: str, scale: float, seed: int) -> ApplicationTrace:
    cache = active_trace_cache()
    trace = cache.load(benchmark, scale, seed) if cache is not None else None
    if trace is None:
        trace = get_workload(benchmark).generate(scale=scale, seed=seed)
        if cache is not None:
            cache.save(trace, benchmark, scale, seed)
    return trace


def trace_memo_stats() -> Dict[str, int]:
    """Counters of the per-process trace memo (for worker status frames)."""
    return _TRACE_MEMO.stats()


def get_trace(benchmark: str, scale: float, seed: int) -> ApplicationTrace:
    """Return (generating once per process) the trace of ``benchmark``.

    Trace generation is deterministic in (benchmark, scale, seed), which is
    what makes specs self-contained: a worker process can regenerate exactly
    the trace the submitting process described.  The returned object is the
    process-wide memoised instance (see the module docstring for why that
    also carries warmed plan-cache state) unless ``REPRO_EXP_TRACE_MEMO=0``
    opts out.  A memo miss loads from the process's trace cache, if one is
    set, before it generates.
    """
    if os.environ.get(TRACE_MEMO_ENV, "") == "0":
        return _load_or_generate(benchmark, scale, seed)
    return _TRACE_MEMO.get(benchmark, scale, seed)


def run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one experiment and return its condensed result."""
    trace = get_trace(spec.benchmark, spec.scale, spec.trace_seed)
    simulator = TaskSimSimulator(
        architecture=spec.architecture,
        scheduler=spec.scheduler,
        scheduler_seed=spec.scheduler_seed,
    )
    if spec.is_detailed:
        result = simulator.run(trace, num_threads=spec.num_threads, controller=None)
        return ExperimentResult.from_simulation(spec, result)
    if isinstance(spec.config, StratifiedConfig):
        controller = StratifiedController(trace, config=spec.config)
    elif isinstance(spec.config, FidelityConfig):
        controller = FidelityController(trace, config=spec.config)
    else:
        controller = TaskPointController(config=spec.config)
    result = simulator.run(trace, num_threads=spec.num_threads, controller=controller)
    return ExperimentResult.from_simulation(spec, result, stats=controller.stats)
