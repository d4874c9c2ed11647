"""Architecture models: cores, caches, interconnect and DRAM.

This package provides the micro-architectural substrate of the TaskSim-style
simulator: a set-associative cache model, per-core cache hierarchies with
shared last-level caches, a bandwidth-limited DRAM model, a contended
interconnect and an analytical ROB-occupancy core model in the spirit of
Lee et al. (ISPASS 2009), which is the detailed CPU model TaskSim uses.

The two architecture configurations evaluated in the paper (Table II) are
available as :func:`repro.arch.config.high_performance_config` and
:func:`repro.arch.config.low_power_config`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.arch.batch": ["BatchedCoreExecutor"],
    "repro.arch.config": [
        "ArchitectureConfig",
        "CacheConfig",
        "CoreConfig",
        "MemoryConfig",
        "high_performance_config",
        "low_power_config",
    ],
    "repro.arch.cache": ["Cache", "CacheStatistics"],
    "repro.arch.hierarchy": ["CacheHierarchy", "MemorySystem"],
    "repro.arch.dram": ["DramModel"],
    "repro.arch.interconnect": ["Interconnect"],
    "repro.arch.rob": ["RobModel"],
    "repro.arch.core": ["DetailedCoreModel", "InstanceExecution"],
})
