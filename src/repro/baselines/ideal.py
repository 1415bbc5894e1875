"""The ideal-cache upper bound (paper Section II).

"We define an ideal prefetcher as one that achieves the performance
of an I-cache with no misses, i.e., where every access hits in the L1
I-cache (a theoretical upper bound)."
"""

from __future__ import annotations

from typing import Optional

from ..sim.cpu import CoreSimulator
from ..sim.stats import SimStats
from ..sim.trace import BlockTrace
from .protocol import (
    Prefetcher,
    ProfileView,
    ReplayContext,
    register_prefetcher,
)


class IdealPrefetcher(Prefetcher):
    """The no-miss bound through the zoo protocol: a no-prefetch replay
    (no plan, no data traffic) projected onto the all-hits cache by
    :meth:`~repro.sim.stats.SimStats.ideal_bound`.  It rides the
    CoreSimulator replay path, so sharded execution applies
    bit-identically; there is no plan and nothing to train."""

    planner = "ideal"
    requires_profile = False
    produces_plan = False
    supports_plan_replay = True

    def __init__(self) -> None:
        self.name = "ideal"

    def train_result(self, view: ProfileView) -> None:
        return None

    def simulate(
        self,
        view: ProfileView,
        trace: BlockTrace,
        ctx: Optional[ReplayContext] = None,
    ) -> SimStats:
        ctx = ctx or ReplayContext()
        core = CoreSimulator(view.program, machine=ctx.machine)
        return core.run(
            trace,
            warmup=ctx.warmup,
            shard_insns=ctx.shard_insns,
            checkpointer=ctx.checkpointer,
        ).ideal_bound()


register_prefetcher("ideal", IdealPrefetcher)

__all__ = ["IdealPrefetcher"]
