"""Architecture configuration objects and the Table II presets.

The paper evaluates TaskPoint on two radically different multi-core designs:
a high-performance (server-class) configuration and a low-power (mobile)
configuration.  Both are described in Table II and reproduced here as
factory functions returning fully-specified :class:`ArchitectureConfig`
objects.  All structural parameters can also be set directly to explore
other points of the design space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of a single cache level.

    Attributes
    ----------
    size_bytes:
        Total capacity in bytes.
    associativity:
        Number of ways per set.
    latency_cycles:
        Access (hit) latency in core cycles.
    line_bytes:
        Cache-line size in bytes.
    shared:
        ``True`` if the cache is shared by all cores, ``False`` if private.
    """

    size_bytes: int
    associativity: int
    latency_cycles: int
    line_bytes: int = 64
    shared: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a positive power of two")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "cache size must be a multiple of line_bytes * associativity"
            )
        if self.latency_cycles < 0:
            raise ValueError("latency must be non-negative")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class CoreConfig:
    """Configuration of one processor core (ROB-occupancy model parameters)."""

    rob_size: int
    issue_width: int
    commit_width: int
    frequency_ghz: float = 2.6
    base_cpi: float = 1.0

    def __post_init__(self) -> None:
        if self.rob_size <= 0:
            raise ValueError("ROB size must be positive")
        if self.issue_width <= 0 or self.commit_width <= 0:
            raise ValueError("issue and commit width must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.base_cpi <= 0:
            raise ValueError("base CPI must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory and interconnect configuration."""

    dram_latency_cycles: int = 180
    dram_bandwidth_lines_per_cycle: float = 0.25
    interconnect_latency_cycles: int = 8
    interconnect_contention_per_core: float = 1.5

    def __post_init__(self) -> None:
        if self.dram_latency_cycles < 0:
            raise ValueError("DRAM latency must be non-negative")
        if self.dram_bandwidth_lines_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        if self.interconnect_latency_cycles < 0:
            raise ValueError("interconnect latency must be non-negative")
        if self.interconnect_contention_per_core < 0:
            raise ValueError("contention factor must be non-negative")


@dataclass(frozen=True)
class ArchitectureConfig:
    """Complete description of a simulated multi-core architecture.

    The cache hierarchy is described by up to three levels.  A level marked
    ``shared=True`` is instantiated once and shared by all cores; private
    levels are instantiated per core.  ``l3`` may be ``None`` for two-level
    hierarchies such as the low-power configuration of Table II.  L1 must be
    private, and no private level may follow a shared one.
    """

    name: str
    core: CoreConfig
    l1: CacheConfig
    l2: CacheConfig
    l3: Optional[CacheConfig] = None
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def __post_init__(self) -> None:
        line = self.l1.line_bytes
        levels = [self.l1, self.l2] + ([self.l3] if self.l3 else [])
        if any(level.line_bytes != line for level in levels):
            raise ValueError("all cache levels must use the same line size")
        # The memory system walks the private levels before the shared ones
        # and charges the interconnect when an access leaves the last private
        # level.  Only a private L1, then private levels, then shared ones is
        # simulated as described, and the same way by every engine.
        shared = [level.shared for level in levels]
        if shared[0] or shared != sorted(shared):
            raise ValueError(
                "L1 must be private and no private cache level may follow a "
                "shared one"
            )

    @property
    def cache_levels(self) -> int:
        """Number of cache levels (2 or 3)."""
        return 3 if self.l3 is not None else 2

    @property
    def last_level(self) -> CacheConfig:
        """Configuration of the last-level cache."""
        return self.l3 if self.l3 is not None else self.l2

    def with_core(self, **kwargs: object) -> "ArchitectureConfig":
        """Return a copy with modified core parameters."""
        return replace(self, core=replace(self.core, **kwargs))


def high_performance_config() -> ArchitectureConfig:
    """Return the high-performance (server-class) configuration of Table II.

    168-entry ROB, 4-wide issue and commit, 32 kB 8-way private L1,
    2 MB 8-way private L2 and a 20 MB 20-way shared L3.
    """
    return ArchitectureConfig(
        name="high-performance",
        core=CoreConfig(rob_size=168, issue_width=4, commit_width=4, frequency_ghz=2.6),
        l1=CacheConfig(size_bytes=32 * 1024, associativity=8, latency_cycles=4),
        l2=CacheConfig(size_bytes=2 * 1024 * 1024, associativity=8, latency_cycles=11),
        l3=CacheConfig(
            size_bytes=20 * 1024 * 1024,
            associativity=20,
            latency_cycles=28,
            shared=True,
        ),
        memory=MemoryConfig(
            dram_latency_cycles=180,
            dram_bandwidth_lines_per_cycle=0.25,
            interconnect_latency_cycles=8,
            interconnect_contention_per_core=1.2,
        ),
    )


def low_power_config() -> ArchitectureConfig:
    """Return the low-power (mobile-class) configuration of Table II.

    40-entry ROB, 3-wide issue and commit, 32 kB 2-way private L1 and a
    1 MB 16-way shared L2; no L3.  Lower DRAM bandwidth and higher contention
    reflect a mobile memory subsystem.
    """
    return ArchitectureConfig(
        name="low-power",
        core=CoreConfig(rob_size=40, issue_width=3, commit_width=3, frequency_ghz=1.6),
        l1=CacheConfig(size_bytes=32 * 1024, associativity=2, latency_cycles=4),
        l2=CacheConfig(
            size_bytes=1024 * 1024,
            associativity=16,
            latency_cycles=21,
            shared=True,
        ),
        l3=None,
        memory=MemoryConfig(
            dram_latency_cycles=220,
            dram_bandwidth_lines_per_cycle=0.10,
            interconnect_latency_cycles=12,
            interconnect_contention_per_core=2.5,
        ),
    )
