"""Evaluation metrics (paper Section V, "Evaluation metrics").

Every number the paper reports reduces to a handful of ratios over
:class:`~repro.sim.stats.SimStats` pairs; this module is the single
place those ratios are defined so figures cannot disagree about
definitions.
"""

from __future__ import annotations

from typing import Iterable

from ..sim.stats import SimStats


def speedup(baseline: SimStats, candidate: SimStats) -> float:
    """Execution-time speedup of *candidate* over *baseline* (>1 is faster)."""
    if candidate.cycles <= 0:
        raise ValueError("candidate ran for zero cycles")
    return baseline.cycles / candidate.cycles


def percent_of_ideal(
    baseline: SimStats, candidate: SimStats, ideal: SimStats
) -> float:
    """How much of the ideal cache's *gain* the candidate realizes.

    The paper's "90.4% of ideal" metric: (S_candidate - 1)/(S_ideal -
    1) where S is speedup over the no-prefetch baseline.
    """
    ideal_gain = speedup(baseline, ideal) - 1.0
    if ideal_gain <= 0:
        return 1.0
    return (speedup(baseline, candidate) - 1.0) / ideal_gain


def mpki_reduction(baseline: SimStats, candidate: SimStats) -> float:
    """Fractional L1I MPKI reduction (1.0 = all misses eliminated)."""
    if baseline.l1i_mpki <= 0:
        return 0.0
    return 1.0 - candidate.l1i_mpki / baseline.l1i_mpki


def prefetch_accuracy(candidate: SimStats) -> float:
    """Useful prefetches over issued prefetches (Fig. 13)."""
    return candidate.prefetch_accuracy


def gap_attribution(candidate: SimStats, ideal: SimStats, issue_width: int = 4):
    """Attribute a prefetcher's remaining gap to the ideal cache.

    Decomposes ``candidate.cycles - ideal.cycles`` into the three loss
    channels a profile-guided prefetcher has:

    * ``residual_miss_stall`` — demand misses that were never covered
      (unplanned lines, suppressed conditionals, divergent control
      flow), including fill-port queuing;
    * ``late_prefetch_stall`` — covered misses whose prefetch had not
      fully arrived (timeliness);
    * ``instruction_overhead`` — issue slots spent executing the
      injected prefetch instructions.

    Returns a dict of cycle counts plus each channel's fraction of the
    total gap.  Fractions sum to 1 up to floating-point noise because
    the three channels partition the gap exactly in this model.
    """
    gap = candidate.cycles - ideal.cycles
    late = candidate.late_prefetch_stall_cycles
    residual = candidate.frontend_stall_cycles - late
    overhead = candidate.prefetch_instructions_executed / issue_width
    result = {
        "gap_cycles": gap,
        "residual_miss_stall": residual,
        "late_prefetch_stall": late,
        "instruction_overhead": overhead,
    }
    if gap > 0:
        for key in (
            "residual_miss_stall",
            "late_prefetch_stall",
            "instruction_overhead",
        ):
            result[f"{key}_fraction"] = result[key] / gap
    return result


def relative_improvement(first: float, second: float) -> float:
    """How much larger *first* is than *second*, as a fraction.

    Used for claims like "outperforms AsmDB by 22.4%": the speedups
    (as gains) are compared relative to the second value.
    """
    if second == 0:
        return 0.0
    return (first - second) / abs(second)


def arithmetic_mean(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("mean of no values")
    return sum(data) / len(data)
