"""Fan-out analysis of candidate injection sites (paper Section II-C).

The paper defines *fan-out* of an injection site as the percentage of
paths from the site that do **not** lead to the target miss.  On a
dynamic profile, the natural estimator is over executions: the
fraction of the site's executions that were not followed by a sampled
miss of the target line within the prefetch window.

:func:`label_occurrences` produces the per-execution lead-to-miss
labels that both fan-out estimation and context discovery
(:mod:`repro.core.context`) consume.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Tuple

from .. import kernel
from ..profiling.profiler import ExecutionProfile


@dataclass(frozen=True)
class OccurrenceLabels:
    """Executions of one site, labelled against one miss line."""

    site: int
    line: int
    indices: Tuple[int, ...]      # trace indices of site executions
    leads_to_miss: Tuple[bool, ...]

    @property
    def positives(self) -> int:
        return sum(self.leads_to_miss)

    @property
    def total(self) -> int:
        return len(self.indices)

    @property
    def miss_probability(self) -> float:
        """P(miss | site executed) — the site's base rate."""
        return self.positives / self.total if self.total else 0.0

    @property
    def fanout(self) -> float:
        """Fraction of executions NOT leading to the miss."""
        return 1.0 - self.miss_probability


#: executions of one site that fan-out and context discovery label at
#: most; a hotter site is read through an evenly spaced subsample
MAX_OCCURRENCES = 20000


def subsample_picks(count: int, limit: int):
    """Positions of the evenly spaced *limit*-element subsample of
    *count* (> *limit*) occurrences: ``int(i * (count / limit))``.

    ``astype(int64)`` truncates exactly as the reference's ``int()``.
    """
    import numpy as np

    step = count / limit
    return (np.arange(limit, dtype=np.float64) * step).astype(np.int64)


def label_occurrences(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    max_occurrences: int = MAX_OCCURRENCES,
) -> OccurrenceLabels:
    """Label each execution of *site*: did a miss of *line* follow
    within *max_cycles*?"""
    if kernel.numpy_enabled():
        return _label_occurrences_columnar(
            profile, site, line, max_cycles, max_occurrences
        )
    return _label_occurrences_reference(
        profile, site, line, max_cycles, max_occurrences
    )


def _label_occurrences_reference(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    max_occurrences: int,
) -> OccurrenceLabels:
    """Bisect over the (sorted) site occurrences and miss samples."""
    occurrences = profile.occurrences(site)
    if len(occurrences) > max_occurrences:
        step = len(occurrences) / max_occurrences
        occurrences = [
            occurrences[int(i * step)] for i in range(max_occurrences)
        ]
    samples = profile.samples_for_line(line)
    miss_indices = [s.trace_index for s in samples]
    cycles = profile.block_cycles

    labels: List[bool] = []
    for index in occurrences:
        position = bisect.bisect_right(miss_indices, index)
        if position >= len(samples):
            labels.append(False)
            continue
        labels.append(samples[position].cycle - cycles[index] <= max_cycles)
    return OccurrenceLabels(
        site=site,
        line=line,
        indices=tuple(occurrences),
        leads_to_miss=tuple(labels),
    )


def _label_occurrences_columnar(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    max_occurrences: int,
) -> OccurrenceLabels:
    """Array form: one batched ``searchsorted`` replaces the bisects.

    ``searchsorted(..., side="right")`` is ``bisect_right``; the
    subsample index ``(i * step)`` truncates identically under
    ``astype(int64)`` and Python ``int()``, so indices and labels match
    the reference exactly.
    """
    import numpy as np

    arrays = profile.arrays()
    occurrences = arrays.occurrences_of(site)
    if len(occurrences) > max_occurrences:
        occurrences = occurrences[
            subsample_picks(len(occurrences), max_occurrences)
        ]
    miss_indices, miss_cycles = arrays.line_samples(line)

    n_misses = len(miss_indices)
    if n_misses:
        positions = np.searchsorted(miss_indices, occurrences, side="right")
        clipped = np.minimum(positions, n_misses - 1)
        # The gap is garbage where no later miss exists; the in-range
        # mask zeroes those labels, exactly the reference's early False.
        gaps = miss_cycles[clipped] - arrays.block_cycles[occurrences]
        labels = (positions < n_misses) & (gaps <= max_cycles)
    else:
        labels = np.zeros(len(occurrences), dtype=bool)
    return OccurrenceLabels(
        site=site,
        line=line,
        indices=tuple(occurrences.tolist()),
        leads_to_miss=tuple(labels.tolist()),
    )


def dynamic_fanout(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
) -> float:
    """The site's fan-out with respect to misses of *line*."""
    return label_occurrences(profile, site, line, max_cycles).fanout


def path_fanout(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    path_length: int = 6,
    max_occurrences: int = MAX_OCCURRENCES,
) -> float:
    """Static-analysis-style fan-out: the fraction of distinct *paths*
    out of the site that do not lead to the miss.

    This is the paper's literal definition (Section II-C: "the
    percentage of paths that do not lead to a target miss from a given
    injection site") — each distinct control-flow path counts once,
    regardless of how often it executes.  It is what a link-time
    analyzer like AsmDB computes, and it is far harsher on
    heavily-branching sites than the execution-weighted estimate: a
    dispatcher with hundreds of observed paths of which three reach
    the miss has ~99% path fan-out even if those three paths are hot.

    Paths are identified by their next ``path_length`` blocks.
    """
    labels = label_occurrences(
        profile, site, line, max_cycles, max_occurrences=max_occurrences
    )
    if not labels.total:
        return 1.0
    blocks = profile.block_ids
    paths_to_miss = set()
    all_paths = set()
    for index, positive in zip(labels.indices, labels.leads_to_miss):
        signature = tuple(blocks[index + 1 : index + 1 + path_length])
        all_paths.add(signature)
        if positive:
            paths_to_miss.add(signature)
    if not all_paths:
        return 1.0
    return 1.0 - len(paths_to_miss) / len(all_paths)


def sites_in_window(
    profile: ExecutionProfile,
    miss_index: int,
    min_cycles: float,
    max_cycles: float,
    estimator: str = "cycles",
) -> List[Tuple[int, float]]:
    """Blocks executed within the prefetch window before a miss.

    Returns (block_id, cycle_distance) pairs, nearest first, where
    ``min_cycles <= distance <= max_cycles`` — the paper's timeliness
    constraint (Section II-B).

    ``estimator`` selects how the cycle distance is measured:

    * ``"cycles"`` — exact per-block cycle timestamps from the LBR
      profile (I-SPY's approach, Section IV);
    * ``"ipc"`` — instruction counts scaled by the application's
      average CPI (AsmDB's approach).  Mis-estimates the window
      wherever local IPC diverges from the average — precisely the
      imprecision the paper calls out.
    """
    if estimator not in ("cycles", "ipc"):
        raise ValueError("estimator must be 'cycles' or 'ipc'")
    # A backward scan from the miss, one distance per step (the
    # columnar engine batches every miss's scan inside candidate
    # ranking, repro.core.injection.rank_lines).
    blocks = profile.block_ids
    if estimator == "cycles":
        cycles = profile.block_cycles
        miss_position = cycles[miss_index]

        def distance_to(index: int) -> float:
            return miss_position - cycles[index]

    else:
        cumulative = profile.cumulative_instructions
        average_cpi = profile.average_cpi
        miss_instr = cumulative[miss_index]

        def distance_to(index: int) -> float:
            return (miss_instr - cumulative[index]) * average_cpi

    results: List[Tuple[int, float]] = []
    seen = set()
    index = miss_index - 1
    while index >= 0:
        distance = distance_to(index)
        if distance > max_cycles:
            break
        if distance >= min_cycles:
            block = blocks[index]
            if block not in seen:
                seen.add(block)
                results.append((block, distance))
        index -= 1
    return results
