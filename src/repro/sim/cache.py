"""Set-associative cache with priority-insertion replacement.

This is the building block of the Table I hierarchy.  Addresses are
cache-line indices (the frontend only ever fetches whole lines); the
set index is the low bits of the line index and the tag is the full
line index, which keeps lookups exact.

The cache tracks the statistics the paper's metrics need:

* demand hits / misses,
* prefetch-fill bookkeeping — whether a prefetched line was used
  before eviction (prefetch *accuracy*, Fig. 13) and whether a demand
  access hit a line brought in by a prefetch (*covered* misses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from .params import CacheGeometry
from .replacement import InsertionPolicy, LRUStack


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0          # demand hits on prefetched lines
    prefetch_unused_evictions: int = 0
    evictions: int = 0

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def miss_ratio(self) -> float:
        total = self.demand_accesses
        return self.demand_misses / total if total else 0.0

    def reset(self) -> None:
        self.demand_hits = 0
        self.demand_misses = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self.prefetch_unused_evictions = 0
        self.evictions = 0


class Cache:
    """A single set-associative cache level."""

    def __init__(
        self,
        geometry: CacheGeometry,
        prefetch_insertion_fraction: float = 0.5,
    ):
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self._sets: Dict[int, LRUStack] = {}
        self._policy = InsertionPolicy(geometry.ways, prefetch_insertion_fraction)
        #: lines filled by a prefetch and not yet demanded
        self._pending_prefetched: Set[int] = set()
        self.stats = CacheStats()

    # -- internals ---------------------------------------------------

    def _set_for(self, line: int) -> LRUStack:
        index = line % self.num_sets
        lru = self._sets.get(index)
        if lru is None:
            lru = LRUStack(self.ways)
            self._sets[index] = lru
        return lru

    # -- queries -----------------------------------------------------

    def contains(self, line: int) -> bool:
        """True if *line* is resident (no state change)."""
        return line in self._set_for(line)

    def is_pristine(self) -> bool:
        """True when no access, fill or probe has ever touched a set.

        This is the gate the columnar kernel uses: a pristine cache
        can be reconstructed from a from-scratch replay, a non-pristine
        one composes with prior state and must take the reference loop.
        """
        return not self._sets

    def prefetch_insertion_depth(self) -> int:
        """LRU-stack depth at which prefetch fills land (Section III-B)."""
        return self._policy.depth_for(InsertionPolicy.PREFETCH)

    def resident_lines(self) -> Set[int]:
        """Every line currently resident (for invariants/tests)."""
        lines: Set[int] = set()
        for lru in self._sets.values():
            lines.update(lru.tags())
        return lines

    # -- operations --------------------------------------------------

    def access(self, line: int) -> bool:
        """Demand access; returns True on hit.

        A miss does *not* fill the line — the hierarchy decides where
        the data comes from and calls :meth:`fill` afterwards, so that
        fill timing and insertion priority stay in one place.
        """
        # Inlined _set_for: this is the hottest call in the simulator
        # (every fetched line of every block lands here first).
        sets = self._sets
        index = line % self.num_sets
        lru = sets.get(index)
        if lru is None:
            lru = sets[index] = LRUStack(self.ways)
        stats = self.stats
        if lru.touch(line):
            stats.demand_hits += 1
            pending = self._pending_prefetched
            if line in pending:
                pending.discard(line)
                stats.prefetch_hits += 1
            return True
        stats.demand_misses += 1
        return False

    def fill(self, line: int, source: str = InsertionPolicy.DEMAND) -> Optional[int]:
        """Install *line*; returns the evicted victim line, if any."""
        lru = self._set_for(line)
        depth = self._policy.depth_for(source)
        victim = lru.insert(line, depth)
        if source == InsertionPolicy.PREFETCH:
            self.stats.prefetch_fills += 1
            self._pending_prefetched.add(line)
        if victim is not None:
            self.stats.evictions += 1
            if victim in self._pending_prefetched:
                self._pending_prefetched.discard(victim)
                self.stats.prefetch_unused_evictions += 1
        return victim

    def invalidate(self, line: int) -> bool:
        removed = self._set_for(line).evict(line)
        if removed:
            self._pending_prefetched.discard(line)
        return removed

    def flush(self) -> None:
        """Empty the cache, keeping statistics."""
        self._sets.clear()
        self._pending_prefetched.clear()
