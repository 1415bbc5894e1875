"""Simulation statistics: everything the paper's metrics consume.

One :class:`SimStats` is produced per simulation run.  The evaluation
metrics (speedup, MPKI, accuracy, coverage, footprints — Section V
"Evaluation metrics") are all derived from these counters by
:mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


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

    def ideal_bound(self) -> "SimStats":
        """The paper's ideal I-cache over this no-prefetch replay's
        trace and warmup: every fetch hits (Section II's upper bound).

        Such a run's only non-zero counters are the demand accesses,
        the program instructions and their compute cycles, which a
        no-prefetch replay already holds — its ``compute_cycles`` is
        exactly ``program_instructions * cpi``, since it executed no
        prefetch instruction.
        """
        if self.prefetch_instructions_executed:
            raise ValueError(
                "the ideal bound is a projection of a no-prefetch "
                "replay; these stats executed prefetch instructions"
            )
        return SimStats(
            compute_cycles=self.compute_cycles,
            program_instructions=self.program_instructions,
            l1i_accesses=self.l1i_accesses,
        )

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
