"""Prefetch injection-site selection (paper Sections II-B/C, IV).

For every frequently-missing cache line, choose the basic block to
inject a prefetch into.  A good site:

* executes inside the prefetch window before the miss — early enough
  to hide the fill latency, late enough not to be evicted (Fig. 18);
* *covers* the miss — it appears before most of the line's misses;
* ideally has low *fan-out* — most of its executions actually lead
  to the miss (otherwise I-SPY makes the prefetch conditional, and
  AsmDB refuses the site).

Candidates are scored from the profile and sorted (the paper notes
the selection is O(n log n)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import kernel
from ..cfg.fanout import (
    candidate_fanout,
    label_occurrences,
    path_fanout,
    sites_in_window,
    window_entries,
)
from ..profiling.profiler import AnalysisMemo, ExecutionProfile
from .config import ISpyConfig


@dataclass(frozen=True)
class CandidateSite:
    """A scored injection candidate for one miss line."""

    block_id: int
    coverage: float          # fraction of the line's misses it precedes
    fanout: float            # fraction of its executions not leading to the miss
    mean_distance: float     # average cycle distance to the miss

    @property
    def accuracy_estimate(self) -> float:
        """Expected fraction of useful prefetches if unconditional."""
        return 1.0 - self.fanout


@dataclass(frozen=True)
class SiteSelection:
    """Result of site selection for one miss line."""

    line: int
    miss_block: int
    sample_count: int
    chosen: Optional[CandidateSite]
    candidates: Tuple[CandidateSite, ...]


def rank_candidates(
    profile: ExecutionProfile,
    line: int,
    config: ISpyConfig,
    max_candidates: int = 12,
    distance_estimator: str = "cycles",
) -> List[CandidateSite]:
    """Score the blocks that execute in the prefetch window before
    misses of *line*, best-coverage first.

    ``distance_estimator`` is "cycles" for I-SPY (exact LBR timing) or
    "ipc" for AsmDB (average-IPC estimation, Section IV).
    """
    samples = profile.samples_for_line(line)
    if not samples:
        return []
    if kernel.numpy_enabled():
        return _rank_candidates_columnar(
            profile, line, samples, config, max_candidates, distance_estimator
        )

    appearance: Counter = Counter()
    distance_sum: Dict[int, float] = {}
    for sample in samples:
        for block, distance in sites_in_window(
            profile,
            sample.trace_index,
            config.min_prefetch_distance,
            config.max_prefetch_distance,
            estimator=distance_estimator,
        ):
            appearance[block] += 1
            distance_sum[block] = distance_sum.get(block, 0.0) + distance

    total = len(samples)
    candidates: List[CandidateSite] = []
    for block, count in appearance.most_common(max_candidates):
        labels = label_occurrences(
            profile, block, line, config.max_prefetch_distance
        )
        candidates.append(
            CandidateSite(
                block_id=block,
                coverage=count / total,
                fanout=labels.fanout,
                mean_distance=distance_sum[block] / count,
            )
        )
    # O(n log n): best coverage first, fan-out breaks ties.
    candidates.sort(key=lambda c: (-c.coverage, c.fanout))
    return candidates


def _rank_candidates_columnar(
    profile: ExecutionProfile,
    line: int,
    samples,
    config: ISpyConfig,
    max_candidates: int,
    distance_estimator: str,
) -> List[CandidateSite]:
    """Array form of candidate ranking.

    One :func:`window_entries` pass replaces the per-sample window
    scans.  ``Counter.most_common`` sorts by count and breaks ties by
    insertion (first-seen) order; ``lexsort`` over ``(-count,
    first_seen)`` reproduces that ordering with integer keys.  The
    per-block distance totals are accumulated in a Python loop in
    entry order, because a vectorized reduction would reassociate the
    float additions that reach the plan through ``mean_distance``.
    """
    import numpy as np

    blocks, distances = window_entries(
        profile,
        [sample.trace_index for sample in samples],
        config.min_prefetch_distance,
        config.max_prefetch_distance,
        estimator=distance_estimator,
    )
    if not len(blocks):
        return []
    unique_blocks, first_seen, counts = np.unique(
        blocks, return_index=True, return_counts=True
    )
    top = np.lexsort((first_seen, -counts))[:max_candidates]

    wanted = set(unique_blocks[top].tolist())
    distance_sum: Dict[int, float] = {}
    for block, distance in zip(blocks.tolist(), distances.tolist()):
        if block in wanted:
            distance_sum[block] = distance_sum.get(block, 0.0) + distance

    total = len(samples)
    candidates: List[CandidateSite] = []
    for position in top.tolist():
        block = int(unique_blocks[position])
        count = int(counts[position])
        candidates.append(
            CandidateSite(
                block_id=block,
                coverage=count / total,
                fanout=candidate_fanout(
                    profile, block, line, config.max_prefetch_distance
                ),
                mean_distance=distance_sum[block] / count,
            )
        )
    candidates.sort(key=lambda c: (-c.coverage, c.fanout))
    return candidates


def select_site(
    profile: ExecutionProfile,
    line: int,
    config: ISpyConfig,
    max_fanout: Optional[float] = None,
    fanout_mode: str = "execution",
    distance_estimator: str = "cycles",
) -> SiteSelection:
    """Choose the injection site for *line*.

    ``max_fanout`` implements the AsmDB-style threshold: candidates
    with higher fan-out are discarded entirely (the coverage/accuracy
    trade-off of Fig. 3).  I-SPY passes None — it takes the best
    coverage site at *any* fan-out and relies on conditional
    execution for accuracy.

    ``fanout_mode`` picks the estimator used against the threshold:
    ``"execution"`` weights by execution frequency; ``"path"`` counts
    distinct control-flow paths once each, the paper's literal
    definition and what a link-time analyzer sees.
    """
    if fanout_mode not in ("execution", "path"):
        raise ValueError("fanout_mode must be 'execution' or 'path'")
    samples = profile.samples_for_line(line)
    # The ranking reads only the window and the estimator, so every
    # variant sharing them (and every fan-out threshold) reuses it.
    memo = profile.analysis_memo()
    numpy_on = kernel.numpy_enabled()
    key = (
        line,
        config.min_prefetch_distance,
        config.max_prefetch_distance,
        distance_estimator,
        numpy_on,
    )
    candidates = memo.candidates.get(key)
    if candidates is None:
        candidates = tuple(
            rank_candidates(
                profile, line, config, distance_estimator=distance_estimator
            )
        )
        memo.candidates[key] = candidates
    else:
        memo.site_hits += 1
    eligible = candidates
    if max_fanout is not None:
        if fanout_mode == "path":
            eligible = [
                c
                for c in candidates
                if _path_fanout(
                    profile,
                    memo,
                    c.block_id,
                    line,
                    config.max_prefetch_distance,
                    numpy_on,
                )
                <= max_fanout
            ]
        else:
            eligible = [c for c in candidates if c.fanout <= max_fanout]
    chosen: Optional[CandidateSite] = None
    if eligible:
        # Among near-best-coverage candidates, prefer the *earliest*
        # site (largest cycle distance): a farther site hides more of
        # an L3/memory fill, and the window's max bound already caps
        # how early it can be (Section II-B timeliness).
        best_coverage = eligible[0].coverage
        near_best = [c for c in eligible if c.coverage >= 0.9 * best_coverage]
        chosen = max(near_best, key=lambda c: c.mean_distance)
    miss_block = samples[0].block_id if samples else -1
    return SiteSelection(
        line=line,
        miss_block=miss_block,
        sample_count=len(samples),
        chosen=chosen,
        candidates=candidates,
    )


def _path_fanout(
    profile: ExecutionProfile,
    memo: AnalysisMemo,
    site: int,
    line: int,
    max_cycles: float,
    numpy_on: bool,
) -> float:
    """:func:`path_fanout` of one candidate, through the profile's memo."""
    key = (site, line, max_cycles, numpy_on)
    fanout = memo.path_fanouts.get(key)
    if fanout is None:
        fanout = path_fanout(profile, site, line, max_cycles)
        memo.path_fanouts[key] = fanout
    return fanout


def frequent_miss_lines(
    profile: ExecutionProfile, config: ISpyConfig
) -> List[Tuple[int, int]]:
    """(line, sample_count) pairs above the noise floor, heaviest first."""
    counts = profile.miss_counts_by_line()
    heavy = [
        (line, count)
        for line, count in counts.items()
        if count >= config.min_miss_samples
    ]
    heavy.sort(key=lambda item: -item[1])
    return heavy
