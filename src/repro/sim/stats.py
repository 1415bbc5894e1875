"""Simulation statistics: everything the paper's metrics consume.

One :class:`SimStats` is produced per simulation run.  The evaluation
metrics (speedup, MPKI, accuracy, coverage, footprints — Section V
"Evaluation metrics") are all derived from these counters by
:mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple


@dataclass
class SimStats:
    """Counters from one trace replay."""

    #: cycles spent retiring instructions at the base IPC
    compute_cycles: float = 0.0
    #: cycles the frontend stalled waiting for instruction lines
    frontend_stall_cycles: float = 0.0

    #: instructions retired from the original program
    program_instructions: int = 0
    #: injected prefetch instructions that were *executed* (whether or
    #: not their condition allowed the prefetch to fire)
    prefetch_instructions_executed: int = 0

    #: demand L1I fetch accesses / misses (line granularity)
    l1i_accesses: int = 0
    l1i_misses: int = 0
    #: demand misses that were satisfied by an in-flight prefetch
    #: arriving late (partial stall paid)
    late_prefetch_hits: int = 0
    #: the cycles those late arrivals actually stalled the frontend
    late_prefetch_stall_cycles: float = 0.0

    #: prefetches actually issued to the hierarchy (condition passed,
    #: line not already resident in L1I)
    prefetches_issued: int = 0
    #: prefetch firings whose target was already in the L1I
    prefetches_resident: int = 0
    #: conditional prefetches whose context check suppressed the fetch
    prefetches_suppressed: int = 0
    #: issued prefetched lines that received a demand hit before
    #: eviction (numerator of prefetch accuracy)
    prefetches_useful: int = 0

    #: demand misses per hit level (keys: "l2", "l3", "memory")
    miss_level_counts: Dict[str, int] = field(default_factory=dict)

    # -- derived quantities -------------------------------------------

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.frontend_stall_cycles

    @property
    def total_instructions(self) -> int:
        return self.program_instructions + self.prefetch_instructions_executed

    @property
    def ipc(self) -> float:
        return self.total_instructions / self.cycles if self.cycles else 0.0

    @property
    def l1i_mpki(self) -> float:
        """L1 I-cache misses per kilo (program) instruction.

        MPKI is normalized to *program* instructions so that injecting
        prefetch instructions cannot deflate it by inflating the
        denominator.
        """
        if not self.program_instructions:
            return 0.0
        return 1000.0 * self.l1i_misses / self.program_instructions

    @property
    def frontend_bound_fraction(self) -> float:
        """Fraction of cycles lost to frontend stalls (Fig. 1)."""
        total = self.cycles
        return self.frontend_stall_cycles / total if total else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Useful prefetches / issued prefetches (Fig. 13)."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def dynamic_overhead(self) -> float:
        """Executed prefetch instructions relative to program instrs."""
        if not self.program_instructions:
            return 0.0
        return self.prefetch_instructions_executed / self.program_instructions

    def clear(self) -> None:
        """Zero every counter (used at the warmup boundary)."""
        self.compute_cycles = 0.0
        self.frontend_stall_cycles = 0.0
        self.program_instructions = 0
        self.prefetch_instructions_executed = 0
        self.l1i_accesses = 0
        self.l1i_misses = 0
        self.late_prefetch_hits = 0
        self.late_prefetch_stall_cycles = 0.0
        self.prefetches_issued = 0
        self.prefetches_resident = 0
        self.prefetches_suppressed = 0
        self.prefetches_useful = 0
        self.miss_level_counts = {}

    def record_miss_level(self, level: str) -> None:
        self.miss_level_counts[level] = self.miss_level_counts.get(level, 0) + 1

    def as_dict(self) -> Dict[str, float]:
        """Flat summary used by the reporting layer."""
        return {
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l1i_mpki": self.l1i_mpki,
            "frontend_bound": self.frontend_bound_fraction,
            "prefetch_accuracy": self.prefetch_accuracy,
            "dynamic_overhead": self.dynamic_overhead,
            "l1i_misses": float(self.l1i_misses),
            "prefetches_issued": float(self.prefetches_issued),
            "prefetches_suppressed": float(self.prefetches_suppressed),
        }


# -- shard-merge algebra ----------------------------------------------------

#: SimStats counters that are exact integers.  A shard stores the
#: *delta* over its index range; deltas sum losslessly in any order.
SHARD_INT_FIELDS: Tuple[str, ...] = (
    "program_instructions",
    "prefetch_instructions_executed",
    "l1i_accesses",
    "l1i_misses",
    "late_prefetch_hits",
    "prefetches_issued",
    "prefetches_resident",
    "prefetches_suppressed",
    "prefetches_useful",
)

#: SimStats accumulators that are floats.  Float addition is not
#: associative, so a shard does *not* store a delta: it stores the
#: cumulative value of the accumulator at the end of its range, and a
#: merge keeps the value from the later shard.  This makes the merge
#: bit-identical to the whole-trace left-to-right accumulation.
SHARD_FLOAT_FIELDS: Tuple[str, ...] = (
    "compute_cycles",
    "frontend_stall_cycles",
    "late_prefetch_stall_cycles",
)


class ShardMergeError(ValueError):
    """Raised when partial stats cannot be merged (gap or overlap)."""


@dataclass(frozen=True)
class ShardStats:
    """Partial :class:`SimStats` covering a contiguous shard range.

    ``first``/``last`` are inclusive shard indices.  ``ints`` holds the
    per-range deltas of :data:`SHARD_INT_FIELDS`; ``floats`` holds the
    cumulative values of :data:`SHARD_FLOAT_FIELDS` at the end of the
    range; ``miss_levels`` holds per-range deltas of
    ``miss_level_counts``.  Deltas can be negative: a shard that
    contains the warmup reset reports post-reset counters minus the
    pre-reset snapshot, and the telescoping sum still lands on the
    whole-run value.

    The merge is a monoid up to the adjacency requirement: merging is
    associative, permutation-invariant (``merge_all`` sorts by
    ``first``), ``identity()`` is a two-sided unit, and merging a
    single shard returns it unchanged.
    """

    first: int
    last: int
    ints: Tuple[int, ...]
    floats: Tuple[float, ...]
    miss_levels: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def identity(cls) -> "ShardStats":
        return cls(
            first=0,
            last=-1,
            ints=(0,) * len(SHARD_INT_FIELDS),
            floats=(0.0,) * len(SHARD_FLOAT_FIELDS),
            miss_levels=(),
        )

    @property
    def is_identity(self) -> bool:
        return self.last < self.first

    @classmethod
    def delta(
        cls, index: int, before: "SimStats", after: "SimStats"
    ) -> "ShardStats":
        """The partial stats for shard *index*, from cumulative
        snapshots taken before and after replaying it."""
        ints = tuple(
            getattr(after, name) - getattr(before, name)
            for name in SHARD_INT_FIELDS
        )
        floats = tuple(getattr(after, name) for name in SHARD_FLOAT_FIELDS)
        levels = dict(after.miss_level_counts)
        for name, count in before.miss_level_counts.items():
            levels[name] = levels.get(name, 0) - count
        miss = tuple(sorted((k, v) for k, v in levels.items() if v))
        return cls(index, index, ints, floats, miss)

    def merge(self, other: "ShardStats") -> "ShardStats":
        """Merge two adjacent partials into one covering both ranges."""
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        lo, hi = (self, other) if self.first <= other.first else (other, self)
        if lo.last + 1 != hi.first:
            raise ShardMergeError(
                f"cannot merge shard ranges [{lo.first},{lo.last}] and "
                f"[{hi.first},{hi.last}]: not adjacent"
            )
        levels = dict(lo.miss_levels)
        for name, count in hi.miss_levels:
            levels[name] = levels.get(name, 0) + count
        return ShardStats(
            first=lo.first,
            last=hi.last,
            ints=tuple(a + b for a, b in zip(lo.ints, hi.ints)),
            floats=hi.floats,
            miss_levels=tuple(sorted((k, v) for k, v in levels.items() if v)),
        )

    @classmethod
    def merge_all(cls, parts: Iterable["ShardStats"]) -> "ShardStats":
        """Deterministic, order-independent merge: sort by ``first``,
        then fold left.  Any permutation of *parts* yields the same
        result."""
        merged = cls.identity()
        for part in sorted(
            (p for p in parts if not p.is_identity), key=lambda p: p.first
        ):
            merged = merged.merge(part)
        return merged

    def finalize(self) -> "SimStats":
        """The merged whole-run :class:`SimStats`.

        Requires the range to start at shard 0 (the identity finalizes
        to an empty SimStats)."""
        stats = SimStats()
        if self.is_identity:
            return stats
        if self.first != 0:
            raise ShardMergeError(
                f"cannot finalize partial range [{self.first},{self.last}]: "
                "missing shards before it"
            )
        for name, value in zip(SHARD_INT_FIELDS, self.ints):
            setattr(stats, name, value)
        for name, value in zip(SHARD_FLOAT_FIELDS, self.floats):
            setattr(stats, name, value)
        stats.miss_level_counts = {k: v for k, v in self.miss_levels if v}
        return stats

    def to_payload(self) -> Dict[str, object]:
        return {
            "first": self.first,
            "last": self.last,
            "ints": list(self.ints),
            "floats": list(self.floats),
            "miss_levels": [[k, v] for k, v in self.miss_levels],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardStats":
        return cls(
            first=int(payload["first"]),
            last=int(payload["last"]),
            ints=tuple(int(v) for v in payload["ints"]),
            floats=tuple(float(v) for v in payload["floats"]),
            miss_levels=tuple(
                (str(k), int(v)) for k, v in payload["miss_levels"]
            ),
        )
