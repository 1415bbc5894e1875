"""The Table I cache hierarchy wired together.

The instruction-fetch path is L1I -> L2 -> L3 -> memory.  A demand
fetch walks down until it hits, fills every level above the hit
(inclusive hierarchy, like ZSim's default), and reports the hit level
so the core model can charge the right penalty.

Prefetches probe the same hierarchy without disturbing demand
statistics: the *latency* of a prefetch is the latency of the level
where the line currently resides, which is what decides whether the
prefetch window (27-200 cycles) can hide it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import Cache
from .params import MachineParams
from .replacement import InsertionPolicy


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one instruction-line access."""

    level: str          # "l1", "l2", "l3", or "memory"
    penalty: int        # extra cycles beyond a pipelined L1 hit
    was_l1_miss: bool


class FillPort:
    """Finite-bandwidth fill path into the L1I.

    Each line fill occupies the port for the level's transfer time
    (Table I bandwidths), so bursts of prefetches queue — and delay
    any demand fill issued behind them.  This is the channel through
    which *inaccurate* prefetching costs real performance.
    """

    __slots__ = ("params", "busy_until")

    def __init__(self, params: MachineParams):
        self.params = params
        self.busy_until = 0.0

    def request(self, now: float, level: str) -> float:
        """Schedule a fill from *level* issued at *now*.

        Returns the completion cycle: queuing delay + access latency.
        """
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + self.params.fill_occupancy(level)
        return start + self.params.miss_penalty(level)

    def reset(self) -> None:
        self.busy_until = 0.0


class MemoryHierarchy:
    """L1I/L2/L3 + memory for the instruction-fetch path."""

    LEVELS = ("l1", "l2", "l3", "memory")

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        prefetch_insertion_fraction: float = 0.5,
    ):
        """``prefetch_insertion_fraction`` sets where prefetch fills
        land in the LRU stack (0.0 = MRU like demand loads, 0.5 = the
        paper's half-priority design, ~1.0 = next-victim)."""
        self.params = params or MachineParams()
        self.prefetch_insertion_fraction = prefetch_insertion_fraction
        self.l1i = Cache(self.params.l1i, prefetch_insertion_fraction)
        self.l2 = Cache(self.params.l2, prefetch_insertion_fraction)
        self.l3 = Cache(self.params.l3, prefetch_insertion_fraction)
        self.fill_port = FillPort(self.params)

    # -- demand path ---------------------------------------------------

    def fetch(self, line: int) -> AccessResult:
        """Demand-fetch an instruction cache line."""
        if self.l1i.access(line):
            return AccessResult("l1", 0, was_l1_miss=False)
        level = self.fill_after_l1_miss(line)
        return AccessResult(level, self.params.miss_penalty(level), True)

    def fill_after_l1_miss(self, line: int) -> str:
        """Walk L2→L3→memory after a demand L1I miss on *line*.

        Fills every level above the hit (inclusive hierarchy) and
        returns the hit level.  The fetch engine calls this directly on
        its hot path — ``l1i.access`` then ``fill_after_l1_miss`` is
        exactly :meth:`fetch` minus one :class:`AccessResult`
        allocation per line.
        """
        if self.l2.access(line):
            self.l1i.fill(line, InsertionPolicy.DEMAND)
            return "l2"
        if self.l3.access(line):
            self.l2.fill(line, InsertionPolicy.DEMAND)
            self.l1i.fill(line, InsertionPolicy.DEMAND)
            return "l3"
        self.l3.fill(line, InsertionPolicy.DEMAND)
        self.l2.fill(line, InsertionPolicy.DEMAND)
        self.l1i.fill(line, InsertionPolicy.DEMAND)
        return "memory"

    def data_access(self, line: int) -> str:
        """A data-side load into the unified L2/L3 (bypasses the L1I).

        Models the displacement pressure the application's data
        working set puts on the shared cache levels; returns the hit
        level.  L1D is not modelled in detail — data hits that stay
        inside the L1D never reach the L2 and are irrelevant here.
        """
        if self.l2.access(line):
            return "l2"
        if self.l3.access(line):
            self.l2.fill(line, InsertionPolicy.DEMAND)
            return "l3"
        self.l3.fill(line, InsertionPolicy.DEMAND)
        self.l2.fill(line, InsertionPolicy.DEMAND)
        return "memory"

    # -- prefetch path -------------------------------------------------

    def residence_level(self, line: int) -> str:
        """Where *line* currently lives (no state change)."""
        if self.l1i.contains(line):
            return "l1"
        if self.l2.contains(line):
            return "l2"
        if self.l3.contains(line):
            return "l3"
        return "memory"

    def prefetch_fill(self, line: int) -> int:
        """Bring *line* into the L1I as a prefetch.

        Returns the fill latency in cycles (the latency of the level
        the line came from).  Lines already in the L1I cost nothing
        and are left untouched — the paper notes resident-line
        prefetches are cheap precisely because they do not pollute.
        """
        level = self.residence_level(line)
        if level == "l1":
            return 0
        if level == "l3":
            self.l2.fill(line, InsertionPolicy.PREFETCH)
        elif level == "memory":
            self.l3.fill(line, InsertionPolicy.PREFETCH)
            self.l2.fill(line, InsertionPolicy.PREFETCH)
        self.l1i.fill(line, InsertionPolicy.PREFETCH)
        return self.params.miss_penalty(level)

    # -- queries ---------------------------------------------------------

    def is_pristine(self) -> bool:
        """True when no fetch, fill, probe or data access has run yet.

        The columnar kernel replays a trace from scratch and installs
        the final state wholesale, so it requires (and checks via this
        gate) a hierarchy with untouched caches and an idle fill port;
        anything else composes with prior state and must take the
        reference loop.
        """
        return (
            self.l1i.is_pristine()
            and self.l2.is_pristine()
            and self.l3.is_pristine()
            and self.fill_port.busy_until == 0.0
        )

    # -- maintenance -----------------------------------------------------

    def reset(self) -> None:
        """Flush contents and zero statistics (fresh simulation)."""
        for cache in (self.l1i, self.l2, self.l3):
            cache.flush()
            cache.stats.reset()
        self.fill_port.reset()
