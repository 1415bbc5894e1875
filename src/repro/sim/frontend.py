"""Instruction-fetch timing model.

The frontend fetches a basic block line by line.  Each line is one of:

* an L1I hit — no stall;
* a line with an in-flight prefetch — the fetch waits only for the
  *remaining* latency (a "late prefetch": most of the miss is hidden);
* a demand miss — the fetch stalls for the full hit-level penalty.

Stall cycles accumulate into :class:`~repro.sim.stats.SimStats`, from
which the top-down frontend-bound fraction of Fig. 1 is derived.
"""

from __future__ import annotations

from typing import Optional

from .hierarchy import MemoryHierarchy
from .prefetch_engine import PrefetchEngine
from .stats import SimStats
from .trace import Program


class FetchEngine:
    """Per-block fetch with prefetch-aware stall accounting."""

    def __init__(
        self,
        program: Program,
        hierarchy: MemoryHierarchy,
        stats: SimStats,
        engine: Optional[PrefetchEngine] = None,
    ):
        self.program = program
        self.hierarchy = hierarchy
        self.stats = stats
        self.engine = engine
        # Hot-path lookup: block id -> tuple of cache lines.
        self._lines = {block.block_id: block.lines for block in program}

    def fetch_block(self, block_id: int, now: float) -> float:
        """Fetch all lines of *block_id* starting at cycle *now*.

        Returns the stall cycles incurred.
        """
        lines = self._lines[block_id]
        stats = self.stats
        if self.engine is None:
            return self._fetch_no_engine(lines, now)

        hierarchy = self.hierarchy
        arrival_of = self.engine.arrival_of
        l1i_access = hierarchy.l1i.access
        stall = 0.0

        stats.l1i_accesses += len(lines)
        for line in lines:
            arrival = arrival_of(line)
            if arrival is not None and arrival > now + stall:
                # Prefetch still in flight: pay only the remainder.
                remainder = arrival - (now + stall)
                stall += remainder
                stats.late_prefetch_hits += 1
                stats.late_prefetch_stall_cycles += remainder
                l1i_access(line)  # registers prefetch usefulness
                continue
            if l1i_access(line):
                continue
            level = hierarchy.fill_after_l1_miss(line)
            stats.l1i_misses += 1
            stats.record_miss_level(level)
            # queue on the fill port: latency + any backlog left
            # behind by earlier (possibly useless) prefetch fills
            completion = hierarchy.fill_port.request(now + stall, level)
            stall = completion - now
        return stall

    def _fetch_no_engine(self, lines, now: float) -> float:
        """No-prefetch-plan fast path: demand fetches only.

        With no engine there are no in-flight arrivals to consult, so
        the per-line work collapses to one L1I probe; miss handling is
        identical to the engine path.
        """
        stats = self.stats
        stats.l1i_accesses += len(lines)
        hierarchy = self.hierarchy
        l1i_access = hierarchy.l1i.access
        stall = 0.0
        for line in lines:
            if l1i_access(line):
                continue
            level = hierarchy.fill_after_l1_miss(line)
            stats.l1i_misses += 1
            stats.record_miss_level(level)
            completion = hierarchy.fill_port.request(now + stall, level)
            stall = completion - now
        return stall
