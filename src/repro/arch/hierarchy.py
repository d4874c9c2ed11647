"""Per-core cache hierarchies and the shared memory system.

The :class:`MemorySystem` owns all components shared between cores (shared
caches, interconnect, DRAM) and hands out one :class:`CacheHierarchy` per
core.  A hierarchy resolves a memory access level by level, accumulating
latency, and models invalidation of privately cached shared data when a
remote core writes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.cache import Cache
from repro.arch.config import ArchitectureConfig, CacheConfig
from repro.arch.dram import DramModel
from repro.arch.interconnect import Interconnect
from repro.arch.tagstore import LevelTagStore


@dataclass(frozen=True)
class AccessResult:
    """Outcome of resolving one memory access through the hierarchy."""

    latency: float
    level: str          # "L1", "L2", "L3" or "DRAM"
    hit: bool           # True if served by any cache level


class CacheHierarchy:
    """The view of the memory system from a single core.

    A hierarchy chains the core's private caches with the shared levels owned
    by the :class:`MemorySystem`.  All latencies are returned in core cycles.
    """

    def __init__(
        self,
        core_id: int,
        private_caches: List[Cache],
        shared_caches: List[Cache],
        interconnect: Interconnect,
        dram: DramModel,
    ) -> None:
        self.core_id = core_id
        self.private_caches = private_caches
        self.shared_caches = shared_caches
        self.interconnect = interconnect
        self.dram = dram

    @property
    def caches(self) -> List[Cache]:
        """All cache levels visible to this core, from L1 outwards."""
        return self.private_caches + self.shared_caches

    def access(self, address: int, is_write: bool, active_cores: int = 1) -> AccessResult:
        """Resolve one access and return its latency and the serving level.

        The access walks the levels in order; the first hit ends the walk and
        its level's latency (plus the latencies of the levels already missed)
        is charged.  A full miss additionally pays the interconnect and DRAM
        latencies, both of which depend on the number of active cores.
        """
        latency = 0.0
        for index, cache in enumerate(self.caches):
            latency += cache.config.latency_cycles
            if cache.access(address, is_write=is_write):
                return AccessResult(latency=latency, level=cache.name, hit=True)
            if index == len(self.private_caches) - 1 and self.shared_caches:
                # Crossing from private to shared levels traverses the
                # interconnect even when the shared cache then hits.
                latency += self.interconnect.transfer_latency(active_cores)
        if not self.shared_caches:
            latency += self.interconnect.transfer_latency(active_cores)
        latency += self.dram.access_latency(active_cores)
        return AccessResult(latency=latency, level="DRAM", hit=False)

    def invalidate(self, address: int) -> None:
        """Invalidate ``address`` from this core's private caches."""
        for cache in self.private_caches:
            cache.invalidate(address)

    def occupancy(self) -> float:
        """Mean occupancy across the private levels, in [0, 1]."""
        if not self.private_caches:
            return 0.0
        return sum(cache.occupancy() for cache in self.private_caches) / len(
            self.private_caches
        )


class MemorySystem:
    """All memory-side state of a simulated machine.

    Instantiating a memory system builds the shared caches, the interconnect
    and the DRAM model once, and a private-cache stack per core according to
    the architecture configuration.
    """

    def __init__(self, config: ArchitectureConfig, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.config = config
        self.num_cores = num_cores
        self.interconnect = Interconnect(config.memory)
        self.dram = DramModel(config.memory)

        level_configs: List[tuple] = [("L1", config.l1), ("L2", config.l2)]
        if config.l3 is not None:
            level_configs.append(("L3", config.l3))

        self._shared_caches: List[Cache] = []
        shared_templates: List[tuple] = []
        private_templates: List[tuple] = []
        for name, level in level_configs:
            if level.shared:
                shared_templates.append((name, level))
            else:
                private_templates.append((name, level))

        # One authoritative tag store per level, in L1-outwards order
        # (private levels first, matching ``CacheHierarchy.caches``): a
        # private level's store spans all cores (row = core * num_sets +
        # set, views attached in core order below), a shared level's store
        # has a single view.  The caches' per-set dict working copies are
        # lazy views of these stores; the vector kernel walks the stores'
        # NumPy planes directly.
        private_stores = [
            LevelTagStore(level.num_sets, level.associativity)
            for _name, level in private_templates
        ]
        shared_stores = [
            LevelTagStore(level.num_sets, level.associativity)
            for _name, level in shared_templates
        ]
        self.stores: List[LevelTagStore] = private_stores + shared_stores

        for (name, level), store in zip(shared_templates, shared_stores):
            self._shared_caches.append(Cache(level, name=name, store=store))

        self.hierarchies: List[CacheHierarchy] = []
        for core_id in range(num_cores):
            private = [
                Cache(level, name=name, store=store)
                for (name, level), store in zip(private_templates, private_stores)
            ]
            self.hierarchies.append(
                CacheHierarchy(
                    core_id=core_id,
                    private_caches=private,
                    shared_caches=self._shared_caches,
                    interconnect=self.interconnect,
                    dram=self.dram,
                )
            )

    # ------------------------------------------------------------------
    def hierarchy(self, core_id: int) -> CacheHierarchy:
        """Return the cache hierarchy of ``core_id``."""
        return self.hierarchies[core_id]

    @property
    def shared_caches(self) -> List[Cache]:
        """The caches shared by all cores (possibly empty)."""
        return self._shared_caches

    def invalidate_remote(self, writer_core: int, address: int) -> None:
        """Invalidate ``address`` in the private caches of all other cores.

        This is a simplified write-invalidate coherence action used when a
        task instance writes shared data: remote copies are dropped so later
        readers on other cores miss and re-fetch.
        """
        for hierarchy in self.hierarchies:
            if hierarchy.core_id != writer_core:
                hierarchy.invalidate(address)

    def reset_statistics(self) -> None:
        """Zero the statistics of all caches, the interconnect and DRAM."""
        for hierarchy in self.hierarchies:
            for cache in hierarchy.private_caches:
                cache.reset_statistics()
        for cache in self._shared_caches:
            cache.reset_statistics()
        self.interconnect.reset_statistics()
        self.dram.reset_statistics()

    def cache_snapshot(self) -> Dict[str, object]:
        """Return a nested summary of all cache statistics for reporting."""
        return {
            "shared": [cache.snapshot() for cache in self._shared_caches],
            "private": [
                [cache.snapshot() for cache in hierarchy.private_caches]
                for hierarchy in self.hierarchies
            ],
            "dram_avg_latency": self.dram.stats.average_latency,
            "interconnect_avg_latency": self.interconnect.stats.average_latency,
        }
