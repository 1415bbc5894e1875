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

from typing import TYPE_CHECKING, Optional

from .hierarchy import MemoryHierarchy
from .prefetch_engine import PrefetchEngine
from .stats import SimStats
from .trace import Program

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .cpu import TraceObserver


class FetchEngine:
    """Per-block fetch with prefetch-aware stall accounting.

    Without a prefetch *engine* no line is ever in flight; with an
    *observer* every demand miss is reported, at its fill's completion
    cycle, through ``on_miss``.
    """

    def __init__(
        self,
        program: Program,
        hierarchy: MemoryHierarchy,
        stats: SimStats,
        engine: Optional[PrefetchEngine] = None,
        observer: Optional["TraceObserver"] = None,
    ):
        self.program = program
        self.hierarchy = hierarchy
        self.stats = stats
        self.engine = engine
        self.observer = observer
        # Block id -> tuple of cache lines.
        self._lines = {block.block_id: block.lines for block in program}

    def fetch_block(self, block_id: int, now: float, index: int = 0) -> float:
        """Fetch all lines of *block_id* starting at cycle *now*; *index*
        is the block's global trace position, reported to the observer.

        Returns the stall cycles incurred.
        """
        lines = self._lines[block_id]
        stats = self.stats
        hierarchy = self.hierarchy
        engine = self.engine
        observer = self.observer
        l1i_access = hierarchy.l1i.access
        stall = 0.0

        stats.l1i_accesses += len(lines)
        for line in lines:
            arrival = engine.arrival_of(line) if engine is not None else None
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
            if observer is not None:
                observer.on_miss(index, block_id, line, now + stall)
        return stall
