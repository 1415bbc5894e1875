"""MANA: spatial-region metadata instruction prefetching (Ansari et
al., "MANA: Microarchitecting an Instruction Prefetcher", PAPERS.md).

MANA observes that instruction misses cluster into *spatial regions*:
after a miss on a trigger line, the next few misses overwhelmingly
fall within a small window of following lines.  It therefore records,
per trigger line, a footprint bit-vector over the ``region_lines``
lines after the trigger, and chains regions through a *successor*
pointer (the trigger most often observed next) so the prefetcher can
run ahead of the miss stream by ``lookahead`` regions.

The defining storage trick is HOBPT-style pointer compaction: record
entries do not store full line addresses.  The high-order bits of
every trigger are deduplicated into a small High-Order-Bits Pattern
Table (data-center code touches few distinct address regions), and
each record keeps only the low-order bits plus a pattern-table index
and a successor *record* index.  :meth:`ManaTable.storage` accounts
both layouts so the comparison matrix reports honest metadata cost.

Training consumes the same :class:`~repro.profiling.profiler.
ExecutionProfile` the profile-guided planners use (the sampled miss
stream stands in for the hardware's observed miss sequence).  At run
time MANA is a miss trigger (the region walk of
:meth:`ManaPrefetcher.triggers`) on the demand-fetch loop every
run-time prefetcher shares (:func:`repro.sim.mechanism.replay_mechanism`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.instructions import PrefetchInstr, PrefetchPlan
from ..profiling.profiler import ExecutionProfile
from ..sim.mechanism import Targets
from ..sim.trace import Program
from .protocol import (
    MechanismPrefetcher,
    ProfileView,
    ReplayContext,
    register_prefetcher,
)

#: region span (lines after the trigger covered by the footprint)
DEFAULT_REGION_LINES = 8
#: regions prefetched per trigger hit (1 = this region only)
DEFAULT_LOOKAHEAD = 2
#: physical line-address width assumed by the storage accounting
#: (46-bit physical addresses, 64-byte lines)
LINE_ADDRESS_BITS = 40
#: low-order bits kept verbatim in each record; the rest deduplicate
#: into the high-order-bits pattern table
DEFAULT_LOW_BITS = 12


@dataclass(frozen=True)
class ManaRegion:
    """One trained spatial region."""

    trigger: int
    #: block whose execution first missed on the trigger (plan export)
    trigger_block: int
    #: bit i set => line ``trigger + i + 1`` missed within this region
    footprint: int
    #: the trigger most often observed after this region, if any
    successor: Optional[int] = None

    def target_lines(self) -> List[int]:
        return [
            self.trigger + offset + 1
            for offset in range(self.footprint.bit_length())
            if self.footprint >> offset & 1
        ]


class ManaTable:
    """The trained region table (insertion-ordered, deterministic)."""

    def __init__(self, region_lines: int = DEFAULT_REGION_LINES) -> None:
        if region_lines < 1:
            raise ValueError("region_lines must be at least one line")
        self.region_lines = region_lines
        self.regions: Dict[int, ManaRegion] = {}

    def __len__(self) -> int:
        return len(self.regions)

    def lookup(self, line: int) -> Optional[ManaRegion]:
        return self.regions.get(line)

    def storage(
        self,
        line_bits: int = LINE_ADDRESS_BITS,
        low_bits: int = DEFAULT_LOW_BITS,
    ) -> Dict[str, int]:
        """Metadata storage under the naive and HOBPT-compacted
        layouts, in bits (plus the compacted size in bytes)."""
        records = len(self.regions)
        if records == 0:
            return {
                "records": 0,
                "hob_patterns": 0,
                "naive_bits": 0,
                "compact_bits": 0,
                "metadata_bytes": 0,
            }
        patterns = {region.trigger >> low_bits for region in self.regions.values()}
        hob_patterns = len(patterns)
        hob_ptr_bits = max(1, math.ceil(math.log2(hob_patterns + 1)))
        # successor is a record index + a valid bit, not a full address
        succ_ptr_bits = max(1, math.ceil(math.log2(records + 1))) + 1
        compact_record = low_bits + hob_ptr_bits + self.region_lines + succ_ptr_bits
        compact_bits = (
            records * compact_record + hob_patterns * (line_bits - low_bits)
        )
        # naive layout: full trigger address, footprint, full successor
        # address + valid bit
        naive_record = line_bits + self.region_lines + line_bits + 1
        return {
            "records": records,
            "hob_patterns": hob_patterns,
            "naive_bits": records * naive_record,
            "compact_bits": compact_bits,
            "metadata_bytes": (compact_bits + 7) // 8,
        }

    def to_plan(self) -> PrefetchPlan:
        """Express the region table as a :class:`PrefetchPlan` (one
        coalesced record per trigger, sited at the triggering block).

        MANA injects nothing into the binary — this export exists for
        inspection and the plan-shaped acceptance tests; the simulated
        mechanism replays the table directly.
        """
        plan = PrefetchPlan(name="mana")
        for region in self.regions.values():
            plan.add(
                PrefetchInstr(
                    site_block=region.trigger_block,
                    base_line=region.trigger,
                    bit_vector=region.footprint,
                    vector_bits=self.region_lines,
                    covers=tuple(region.target_lines()),
                )
            )
        return plan


@dataclass
class ManaReport:
    """What training observed, for inspection."""

    region_lines: int
    considered_misses: int = 0
    regions: int = 0
    chained_regions: int = 0
    storage: Dict[str, int] = field(default_factory=dict)


@dataclass
class ManaResult:
    table: ManaTable
    report: ManaReport

    @property
    def plan(self) -> PrefetchPlan:
        return self.table.to_plan()


def build_mana_table(
    program: Program,
    profile: ExecutionProfile,
    region_lines: int = DEFAULT_REGION_LINES,
    max_regions: Optional[int] = None,
) -> ManaResult:
    """Train the region table from the profiled miss stream.

    The sampled misses are walked in trace order: a miss outside the
    current region opens a new region at that trigger and casts a
    successor vote from the previous trigger; misses inside the
    current region OR into its footprint.  Ties in the successor vote
    resolve to the smallest line so training is deterministic.
    """
    if region_lines < 1:
        raise ValueError("region_lines must be at least one line")
    footprints: Dict[int, int] = {}
    trigger_blocks: Dict[int, int] = {}
    trigger_counts: Counter = Counter()
    successor_votes: Dict[int, Counter] = {}

    report = ManaReport(region_lines=region_lines)
    current: Optional[int] = None
    for sample in profile.miss_samples:
        report.considered_misses += 1
        line = sample.line
        if current is not None and current < line <= current + region_lines:
            footprints[current] |= 1 << (line - current - 1)
            continue
        if current is not None and line != current:
            successor_votes.setdefault(current, Counter())[line] += 1
        footprints.setdefault(line, 0)
        trigger_blocks.setdefault(line, sample.block_id)
        trigger_counts[line] += 1
        current = line

    triggers = list(footprints)
    if max_regions is not None and len(triggers) > max_regions:
        order = {line: index for index, line in enumerate(footprints)}
        triggers = sorted(
            triggers, key=lambda line: (-trigger_counts[line], line)
        )[:max_regions]
        triggers.sort(key=order.__getitem__)

    kept = set(triggers)
    table = ManaTable(region_lines=region_lines)
    for trigger in triggers:
        successor = None
        votes = successor_votes.get(trigger)
        if votes:
            successor = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            if successor not in kept:
                successor = None
        if successor is not None:
            report.chained_regions += 1
        table.regions[trigger] = ManaRegion(
            trigger=trigger,
            trigger_block=trigger_blocks[trigger],
            footprint=footprints[trigger],
            successor=successor,
        )
    report.regions = len(table)
    report.storage = table.storage()
    return ManaResult(table=table, report=report)


class ManaPrefetcher(MechanismPrefetcher):
    """Hardware metadata scheme: trains a region table from the
    profile, replays through the shared mechanism loop, injects
    nothing into the binary (its cost is all metadata)."""

    planner = "mana"
    requires_profile = True

    def __init__(
        self,
        region_lines: int = DEFAULT_REGION_LINES,
        lookahead: int = DEFAULT_LOOKAHEAD,
        max_regions: Optional[int] = None,
    ) -> None:
        if region_lines < 1:
            raise ValueError("region_lines must be at least one line")
        if lookahead < 1:
            raise ValueError("lookahead must be at least one region")
        self.region_lines = region_lines
        self.lookahead = lookahead
        self.max_regions = max_regions
        self.name = "mana"

    @property
    def cache_token(self) -> str:
        return (
            f"mana@r{self.region_lines}l{self.lookahead}m{self.max_regions}"
        )

    def train_result(self, view: ProfileView) -> ManaResult:
        return build_mana_table(
            view.program,
            view.profile,
            region_lines=self.region_lines,
            max_regions=self.max_regions,
        )

    def _table(self, trained: object) -> ManaTable:
        if isinstance(trained, ManaResult):
            return trained.table
        if isinstance(trained, ManaTable):
            return trained
        raise TypeError(f"not a MANA training artifact: {trained!r}")

    def triggers(
        self, view: ProfileView, ctx: ReplayContext
    ) -> Dict[str, Targets]:
        """A miss trigger over the trained table.  On a miss of a
        trigger line: the region's footprint, then up to ``lookahead``
        regions down the successor chain, each successor trigger
        followed by its footprint; first occurrence of a line wins."""
        trained = ctx.trained
        if trained is None:
            trained = self.train_result(view)
        table = self._table(trained)
        lookahead = self.lookahead

        def miss_targets(line: int) -> List[int]:
            node = table.lookup(line)
            if node is None:
                return []
            targets: List[int] = []
            for depth in range(lookahead):
                if depth > 0:
                    targets.append(node.trigger)
                targets.extend(node.target_lines())
                successor = node.successor
                if successor is None:
                    break
                node = table.lookup(successor)
                if node is None:
                    targets.append(successor)
                    break
            return list(dict.fromkeys(targets))

        return {"miss_targets": miss_targets}

    def metadata_bytes(self, trained: object = None) -> int:
        if trained is None:
            return 0
        return self._table(trained).storage()["metadata_bytes"]


register_prefetcher("mana", ManaPrefetcher)

__all__ = [
    "DEFAULT_LOOKAHEAD",
    "DEFAULT_REGION_LINES",
    "ManaPrefetcher",
    "ManaRegion",
    "ManaReport",
    "ManaResult",
    "ManaTable",
    "build_mana_table",
]
