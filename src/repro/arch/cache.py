"""Set-associative cache model with LRU replacement.

The cache model tracks tag state only (no data), which is all a performance
simulator needs.  It supports shared caches (a single instance accessed by
all cores), invalidation of lines written by other cores, and statistics
sufficient to explain detailed-mode IPC: hits, misses, evictions and
invalidations.

Tag state lives in :mod:`repro.arch.tagstore`: a cache attached to a
:class:`~repro.arch.tagstore.LevelTagStore` (every cache inside a
:class:`~repro.arch.hierarchy.MemorySystem`) reads and mutates per-set
``OrderedDict`` working copies that the store materialises lazily from its
authoritative NumPy planes whenever the vector kernel has adopted a row; a
standalone cache simply owns plain lazily-allocated dict sets.  Either way,
present sets resolve at C dict speed on the scalar hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.config import CacheConfig
from repro.arch.tagstore import LevelTagStore, _SetViews

__all__ = ["Cache", "CacheStatistics"]


@dataclass
class CacheStatistics:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1]; 0 if the cache was never accessed."""
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        """Miss rate in [0, 1]; 0 if the cache was never accessed."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.writebacks = 0


class Cache:
    """A set-associative cache with true-LRU replacement.

    Parameters
    ----------
    config:
        Structural configuration of the cache.
    name:
        Human-readable name used in statistics dumps (``"L1"``, ``"L2"`` ...).
    store:
        Optional level tag store this cache registers a working-copy view
        with; ``None`` (standalone caches, unit tests) keeps all state in
        the view mapping itself.
    """

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        store: Optional[LevelTagStore] = None,
    ) -> None:
        self.config = config
        self.name = name
        self.stats = CacheStatistics()
        # Set index -> OrderedDict of tag -> dirty bit in LRU order
        # (ascending recency).  Sets are allocated lazily on first touch, or
        # materialised from the level store's planes when the vector kernel
        # holds the row.
        self._sets: _SetViews = (
            store.attach() if store is not None else _SetViews(None, 0)
        )

    # ------------------------------------------------------------------
    def _locate(self, address: int) -> tuple:
        line_number = address // self.config.line_bytes
        set_index = line_number % self.config.num_sets
        tag = line_number // self.config.num_sets
        return set_index, tag

    def line_address(self, address: int) -> int:
        """Return the address of the cache line containing ``address``."""
        return address - (address % self.config.line_bytes)

    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> bool:
        """Access ``address``; return ``True`` on hit, ``False`` on miss.

        A hit makes the line most recently used, and a write marks it dirty.
        A miss allocates the line, dirty if the access writes, evicting the
        set's least recently used line when the set is full (a dirty victim
        counts a writeback).  Remote-write invalidation is not decided here:
        the memory system calls :meth:`invalidate` on the other cores'
        private caches.
        """
        set_index, tag = self._locate(address)
        lines = self._sets[set_index]
        if tag in lines:
            self.stats.hits += 1
            lines.move_to_end(tag)
            if is_write:
                lines[tag] = True
            return True
        self.stats.misses += 1
        if len(lines) >= self.config.associativity:
            self.stats.evictions += 1
            if lines.popitem(last=False)[1]:
                self.stats.writebacks += 1
        lines[tag] = is_write
        return False

    def probe(self, address: int) -> bool:
        """Return ``True`` if ``address`` is present, without changing state."""
        set_index, tag = self._locate(address)
        lines = self._sets.peek(set_index)
        return lines is not None and tag in lines

    def invalidate(self, address: int) -> bool:
        """Invalidate the line containing ``address`` if present.

        Returns ``True`` if a line was invalidated.  Used to model remote
        writes to shared data invalidating copies in other cores' private
        caches.
        """
        set_index, tag = self._locate(address)
        lines = self._sets.peek(set_index)
        if lines is not None and tag in lines:
            self.stats.invalidations += 1
            if lines.pop(tag):
                self.stats.writebacks += 1
            return True
        return False

    # ------------------------------------------------------------------
    def occupancy(self) -> float:
        """Fraction of lines currently valid, in [0, 1]."""
        self._sets.sync()
        used = sum(len(lines) for lines in self._sets.values())
        capacity = self.config.num_sets * self.config.associativity
        return used / capacity if capacity else 0.0

    def flush(self) -> None:
        """Invalidate the entire cache contents (statistics are preserved)."""
        store = self._sets.store
        if store is not None:
            store.release_view(self._sets)
        self._sets.clear()

    def reset_statistics(self) -> None:
        """Zero the statistics counters, keeping cache contents."""
        self.stats.reset()

    def snapshot(self) -> Dict[str, float]:
        """Return a summary dictionary for reporting."""
        return {
            "name": self.name,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": self.stats.hit_rate,
            "evictions": self.stats.evictions,
            "invalidations": self.stats.invalidations,
            "occupancy": self.occupancy(),
        }
