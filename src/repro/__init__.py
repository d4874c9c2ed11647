"""Reproduction of *TaskPoint: Sampled Simulation of Task-Based Programs*.

The library is organised in layers, from the substrate upwards:

* :mod:`repro.trace` — application traces (task instances, instruction counts,
  memory behaviour) and trace I/O,
* :mod:`repro.workloads` — the 19 task-based benchmarks of the paper's
  Table I as synthetic trace generators,
* :mod:`repro.runtime` — the OmpSs-style dynamic task runtime (dependency
  tracking, ready queues, schedulers),
* :mod:`repro.arch` — architecture models (caches, ROB-occupancy core model,
  interconnect, DRAM) and the Table II configurations,
* :mod:`repro.sim` — the TaskSim-style trace-driven multi-core simulator with
  detailed and burst modes,
* :mod:`repro.core` — TaskPoint itself: sample histories, warm-up, the
  sampling period, accurate fast-forwarding and the sampling controller,
* :mod:`repro.exp` — the experiment orchestration layer: hashable
  experiment specs, serial/process-pool/distributed-async execution
  backends and the persistent sharded result store every evaluation
  runs on,
* :mod:`repro.analysis` — IPC-variation analysis, accuracy/speedup metrics,
  parameter sweeps and the experiment drivers behind every figure and table.

Quick start::

    from repro import get_workload, sampled_simulation, compare_with_detailed

    trace = get_workload("cholesky").generate(scale=0.05, seed=1)
    comparison = compare_with_detailed(trace, num_threads=8)
    print(comparison.error_percent, comparison.speedup)

``import repro`` is lazy: each layer loads when a name from it is first
used, so a process imports only the layers it runs (``repro --help`` loads
neither numpy nor asyncio).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.trace": ["ApplicationTrace"],
    "repro.arch.config": [
        "ArchitectureConfig",
        "high_performance_config",
        "low_power_config",
    ],
    "repro.core.config": ["TaskPointConfig", "periodic_config", "lazy_config"],
    "repro.core.controller": ["TaskPointController"],
    "repro.exp.spec": ["ExperimentSpec", "ExperimentResult", "ExperimentFailure"],
    "repro.exp.backends": ["SerialBackend", "ProcessPoolBackend", "run_experiments"],
    "repro.exp.distributed": ["AsyncWorkerBackend"],
    "repro.exp.store": ["ResultStore"],
    "repro.sim.simulator": ["TaskSimSimulator", "simulate"],
    "repro.core.api": ["sampled_simulation", "compare_with_detailed"],
    "repro.workloads.registry": ["get_workload", "list_workloads"],
})
__all__.append("__version__")
