"""Prefetch coalescing (paper Section III-B, Fig. 8).

After injection-site selection, multiple prefetch targets often land
in the same basic block.  Coalescing merges those that (a) share the
same execution context and (b) fall within an n-line window into a
single instruction carrying a coalescing bit-vector: bit *i* set
means "also prefetch ``base_line + i + 1``".

The module also produces the Fig. 20 statistics: the distribution of
coalesced line distances and of lines-per-instruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class PlannedPrefetch:
    """One prefetch target before coalescing."""

    site: int
    line: int
    #: predictor blocks (empty tuple = unconditional)
    context: Tuple[int, ...] = ()
    #: profiled miss lines this prefetch covers
    covers: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CoalescedGroup:
    """One (possibly multi-line) prefetch after coalescing."""

    site: int
    context: Tuple[int, ...]
    base_line: int
    bit_vector: int
    member_lines: Tuple[int, ...]
    covers: Tuple[int, ...]

    @property
    def line_count(self) -> int:
        return len(self.member_lines)


@dataclass
class CoalesceStats:
    """Aggregate statistics over a coalescing pass (Fig. 20)."""

    #: distance (in cache lines) of each coalesced member from its base
    distance_histogram: Counter = field(default_factory=Counter)
    #: lines brought in per emitted instruction
    lines_per_instruction: Counter = field(default_factory=Counter)
    merged_prefetches: int = 0
    emitted_instructions: int = 0

    def distance_distribution(self) -> Dict[int, float]:
        total = sum(self.distance_histogram.values())
        if not total:
            return {}
        return {
            distance: count / total
            for distance, count in sorted(self.distance_histogram.items())
        }

    def fraction_below(self, line_count: int) -> float:
        """Fraction of instructions bringing in fewer than *line_count*
        lines (the paper reports 82.4% bring in < 4)."""
        total = sum(self.lines_per_instruction.values())
        if not total:
            return 0.0
        below = sum(
            count
            for lines, count in self.lines_per_instruction.items()
            if lines < line_count
        )
        return below / total


def coalesce_prefetches(
    planned: Sequence[PlannedPrefetch],
    coalesce_bits: int,
) -> Tuple[List[CoalescedGroup], CoalesceStats]:
    """Group per-site, per-context targets into coalesced prefetches.

    Within a (site, context) group, lines are sorted and packed
    greedily: a window opens at the first unpacked line and absorbs
    every line within ``coalesce_bits`` lines of the base.
    """
    if coalesce_bits < 0:
        raise ValueError("coalesce_bits must be non-negative")

    groups: Dict[Tuple[int, Tuple[int, ...]], List[PlannedPrefetch]] = {}
    for prefetch in planned:
        groups.setdefault((prefetch.site, prefetch.context), []).append(prefetch)

    stats = CoalesceStats()
    result: List[CoalescedGroup] = []

    for (site, context), members in groups.items():
        by_line: Dict[int, List[PlannedPrefetch]] = {}
        for member in members:
            by_line.setdefault(member.line, []).append(member)
        lines = sorted(by_line)

        index = 0
        while index < len(lines):
            base = lines[index]
            window = [base]
            index += 1
            while index < len(lines) and lines[index] - base <= coalesce_bits:
                window.append(lines[index])
                index += 1

            bit_vector = 0
            for line in window[1:]:
                bit_vector |= 1 << (line - base - 1)
                stats.distance_histogram[line - base] += 1
            covers: List[int] = []
            for line in window:
                for member in by_line[line]:
                    covers.extend(member.covers)

            result.append(
                CoalescedGroup(
                    site=site,
                    context=context,
                    base_line=base,
                    bit_vector=bit_vector,
                    member_lines=tuple(window),
                    covers=tuple(sorted(set(covers))),
                )
            )
            stats.lines_per_instruction[len(window)] += 1
            stats.emitted_instructions += 1
            stats.merged_prefetches += len(window) - 1

    return result, stats


def passthrough_groups(
    planned: Iterable[PlannedPrefetch],
) -> List[CoalescedGroup]:
    """One instruction per target (coalescing disabled, Fig. 12)."""
    return [
        CoalescedGroup(
            site=prefetch.site,
            context=prefetch.context,
            base_line=prefetch.line,
            bit_vector=0,
            member_lines=(prefetch.line,),
            covers=prefetch.covers,
        )
        for prefetch in planned
    ]
