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
from typing import Dict, List, Optional, Sequence, Tuple

from .. import kernel
from ..cfg.fanout import (
    MAX_OCCURRENCES,
    label_occurrences,
    path_fanout,
    sites_in_window,
    subsample_picks,
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


def rank_lines(
    profile: ExecutionProfile,
    lines: Sequence[int],
    config: ISpyConfig,
    max_candidates: int = 12,
    distance_estimator: str = "cycles",
) -> Dict[int, Tuple[CandidateSite, ...]]:
    """:func:`rank_candidates` of every line in *lines* (distinct) at
    once, on the columnar engine, as ``{line: candidates}``.

    One pass over the profile replaces the per-line scans, and each
    line's candidates are bit-identical to the reference's:

    1. every sample's prefetch window is gathered in one array pass,
       entries in the reference's scan order (:func:`_window_entries`);
    2. one ``unique`` over ``(line, block)`` keys yields each pair's
       count and first-seen position, and one weighted ``bincount``
       its distance sum — ``bincount`` adds in entry order, the order
       of the reference's running sum;
    3. one ``lexsort`` on ``(line, -count, first_seen)`` picks each
       line's top *max_candidates* with ``Counter.most_common``'s tie
       order;
    4. every pick's fan-out is counted miss-first
       (:func:`_leading_executions`).

    Long profiles are ranked in chunks of about
    :data:`repro.kernel.BATCH_ELEMENTS` window positions
    (:func:`repro.kernel.batch_chunks`; a line is never split).
    """
    import numpy as np

    if distance_estimator not in ("cycles", "ipc"):
        raise ValueError("estimator must be 'cycles' or 'ipc'")
    ranked: Dict[int, Tuple[CandidateSite, ...]] = {line: () for line in lines}
    arrays = profile.arrays()
    per_line = [arrays.line_samples(line) for line in lines]
    sample_counts = np.array([len(i) for i, _ in per_line], dtype=np.int64)
    if not sample_counts.sum():
        return ranked
    miss_indices = np.concatenate([i for i, _ in per_line])
    miss_cycles = np.concatenate([c for _, c in per_line])

    values, scale, miss_values, starts = _scan_bounds(
        profile, miss_indices, config.max_prefetch_distance, distance_estimator
    )
    sample_line = np.repeat(np.arange(len(lines), dtype=np.int64), sample_counts)
    probes = np.bincount(
        sample_line,
        weights=np.maximum(miss_indices - starts, 0),
        minlength=len(lines),
    )
    offsets = np.concatenate(([0], np.cumsum(sample_counts))).tolist()
    for begin, end in kernel.batch_chunks(probes):
        samples = slice(offsets[begin], offsets[end])
        ranked.update(
            _rank_chunk(
                arrays,
                lines[begin:end],
                sample_counts[begin:end],
                miss_indices[samples],
                miss_cycles[samples],
                (values, scale, miss_values[samples], starts[samples]),
                config,
                max_candidates,
            )
        )
    return ranked


def _rank_chunk(
    arrays,
    lines: Sequence[int],
    sample_counts,
    miss_indices,
    miss_cycles,
    scan,
    config: ISpyConfig,
    max_candidates: int,
) -> Dict[int, Tuple[CandidateSite, ...]]:
    """Steps 1-4 of :func:`rank_lines` for one chunk of its lines;
    lines without a candidate are left out."""
    import numpy as np

    sample_line = np.repeat(np.arange(len(lines), dtype=np.int64), sample_counts)
    entry_sample, blocks, distances = _window_entries(
        arrays,
        miss_indices,
        scan,
        config.min_prefetch_distance,
        config.max_prefetch_distance,
    )
    if not len(blocks):
        return {}
    span = int(blocks.max()) + 1
    keys = sample_line[entry_sample] * span + blocks
    pairs, first_seen, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    distance_sums = np.bincount(inverse, weights=distances)
    pair_line = pairs // span

    order = np.lexsort((first_seen, -counts, pair_line))
    ordered_line = pair_line[order]
    rank = np.arange(len(order)) - np.searchsorted(ordered_line, ordered_line)
    top = order[rank < max_candidates]

    top_line = pair_line[top]
    top_block = pairs[top] % span
    leading, totals = _leading_executions(
        arrays,
        top_line,
        top_block,
        sample_counts,
        miss_indices,
        miss_cycles,
        config.max_prefetch_distance,
    )
    fanouts = 1.0 - leading / totals
    coverages = counts[top] / sample_counts[top_line]
    mean_distances = distance_sums[top] / counts[top]
    # O(n log n): best coverage first, fan-out breaks ties, and the
    # stable order behind them is the most_common order above.
    final = np.lexsort((np.arange(len(top)), fanouts, -coverages, top_line))
    sites = [
        CandidateSite(*fields)
        for fields in zip(
            top_block[final].tolist(),
            coverages[final].tolist(),
            fanouts[final].tolist(),
            mean_distances[final].tolist(),
        )
    ]
    final_line = top_line[final]
    starts = np.flatnonzero(np.diff(final_line)) + 1
    return {
        lines[position]: tuple(sites[begin:end])
        for position, begin, end in zip(
            final_line[np.concatenate(([0], starts))].tolist(),
            [0] + starts.tolist(),
            starts.tolist() + [len(sites)],
        )
    }


def _scan_bounds(
    profile: ExecutionProfile,
    miss_indices,
    max_cycles: float,
    estimator: str,
):
    """``(values, distance_scale, miss_values, starts)`` of the
    backward window scans from *miss_indices*.

    Distances are ``(miss_value - values[i]) * scale``: cycle
    timestamps for ``"cycles"`` (no scale), cumulative instruction
    counts times the average CPI for ``"ipc"`` — the reference's exact
    operations.  ``starts`` is a ``searchsorted`` lower bound, padded
    by a slack that dwarfs float rounding, below which every position
    is too far: each scan stops at or after it.
    """
    import numpy as np

    arrays = profile.arrays()
    if estimator == "cycles":
        values = arrays.block_cycles
        scale = None
        miss_values = values[miss_indices]
        threshold = miss_values - (max_cycles + 1.0)
    else:
        values = arrays.cumulative_instructions
        scale = profile.average_cpi
        miss_values = values[miss_indices]
        threshold = miss_values - ((max_cycles + 1.0) / scale + 2.0)
    starts = np.searchsorted(values, threshold, side="left")
    return values, scale, miss_values, starts


def _window_entries(
    arrays,
    miss_indices,
    scan,
    min_cycles: float,
    max_cycles: float,
):
    """Every miss's :func:`~repro.cfg.fanout.sites_in_window` in one
    array pass, over the :func:`_scan_bounds` *scan*.

    Returns ``(sample, blocks, distances)``: entry *k* is block
    ``blocks[k]`` at ``distances[k]`` in the window of miss
    ``miss_indices[sample[k]]``.  Entries follow the reference's scan
    order — misses in order, each window nearest first — entry for
    entry, and every block inside the scan bound gets the identical
    IEEE distance and comparisons, so each accept/reject decision
    matches.
    """
    import numpy as np

    values, scale, miss_values, starts = scan
    lengths = np.maximum(miss_indices - starts, 0)
    total = int(lengths.sum())
    probe_sample = np.repeat(
        np.arange(len(miss_indices), dtype=np.int64), lengths
    )
    # The k-th probe of a scan sits k + 1 steps before its miss.
    step = np.arange(total, dtype=np.int64) - (
        np.cumsum(lengths) - lengths
    )[probe_sample]
    probe = miss_indices[probe_sample] - 1 - step
    distances = miss_values[probe_sample] - values[probe]
    if scale is not None:
        distances = distances * scale

    # A scan stops at its first too-far block.
    beyond = distances > max_cycles
    stop_step = np.full(len(miss_indices), total, dtype=np.int64)
    np.minimum.at(stop_step, probe_sample[beyond], step[beyond])
    keep = (step < stop_step[probe_sample]) & (distances >= min_cycles)
    probe_sample = probe_sample[keep]
    blocks = arrays.block_ids[probe[keep]]
    distances = distances[keep]
    if not len(blocks):
        return probe_sample, blocks, distances

    # First-seen dedup per window, keeping scan order.
    span = int(blocks.max()) + 1
    _, first = np.unique(probe_sample * span + blocks, return_index=True)
    first.sort()
    return probe_sample[first], blocks[first], distances[first]


def _leading_executions(
    arrays,
    pair_line,
    pair_block,
    sample_counts,
    miss_indices,
    miss_cycles,
    max_cycles: float,
):
    """Per (line, block) pair: how many of the block's (subsampled)
    executions lead to a miss of the line, and how many executions
    were labelled — the two terms of
    :func:`~repro.cfg.fanout.label_occurrences`' ``fanout``, counted
    miss-first.

    An execution at trace index *o* is labelled against the first miss
    after it (``bisect_right``): miss *j* of a line, at trace index
    ``m_j``, owns the executions in ``[m_{j-1}, m_j)`` — one at
    ``m_{j-1}`` itself belongs to miss *j*.  It leads to the miss iff
    ``c_j - cycle[o] <= max_cycles``.  Timestamps are nondecreasing, so
    the executions passing that test form a suffix of the trace,
    ``o >= t_j``; miss *j*'s leading executions are exactly those in
    ``[max(m_{j-1}, t_j), m_j)``, two ``searchsorted`` counts.
    """
    import numpy as np

    cycles = arrays.block_cycles
    n_trace = len(cycles)
    # t_j: a slack-padded lower bound, then the reference's own
    # comparison walks it forward to the suffix start.
    first_leading = np.searchsorted(
        cycles, miss_cycles - (max_cycles + 1.0), side="left"
    )
    while True:
        inside = np.flatnonzero(first_leading < n_trace)
        late = inside[
            miss_cycles[inside] - cycles[first_leading[inside]] > max_cycles
        ]
        if not len(late):
            break
        first_leading[late] += 1

    line_offsets = np.cumsum(sample_counts) - sample_counts
    previous = np.zeros(len(miss_indices), dtype=np.int64)
    previous[1:] = miss_indices[:-1]
    previous[line_offsets[sample_counts > 0]] = 0
    # [low_j, m_j): miss j's leading window, empty when low_j = m_j.
    low = np.minimum(np.maximum(previous, first_leading), miss_indices)
    # Every pick of a line meets every miss of its line.
    per_pair = sample_counts[pair_line]
    query_pair = np.repeat(np.arange(len(pair_line), dtype=np.int64), per_pair)
    query_miss = (
        line_offsets[pair_line][query_pair]
        + np.arange(len(query_pair), dtype=np.int64)
        - (np.cumsum(per_pair) - per_pair)[query_pair]
    )
    query_block = pair_block[query_pair]
    below_high = arrays.occurrences_before(query_block, miss_indices[query_miss])
    below_low = arrays.occurrences_before(query_block, low[query_miss])

    totals = arrays.occurrence_counts(pair_block)
    sampled = np.flatnonzero(totals > MAX_OCCURRENCES)
    for pair in sampled.tolist():
        # Fan-out reads an evenly spaced subsample of a hot block's
        # executions; the k executions below a bound keep the picks
        # below k.
        picks = subsample_picks(int(totals[pair]), MAX_OCCURRENCES)
        mine = query_pair == pair
        below_high[mine] = np.searchsorted(picks, below_high[mine])
        below_low[mine] = np.searchsorted(picks, below_low[mine])
        totals[pair] = MAX_OCCURRENCES
    leading = np.bincount(
        query_pair, weights=below_high - below_low, minlength=len(pair_line)
    ).astype(np.int64)
    return leading, totals


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
        if numpy_on:
            # One pass ranks this line and every frequent line of the
            # profile not ranked yet for this window and estimator.
            group = key[1:]
            frequent = [other for other, _ in frequent_miss_lines(profile, config)]
            lines = [
                other
                for other in dict.fromkeys([line] + frequent)
                if (other,) + group not in memo.candidates
            ]
            ranked = rank_lines(
                profile, lines, config, distance_estimator=distance_estimator
            )
            for other in lines:
                memo.candidates[(other,) + group] = ranked[other]
            candidates = ranked[line]
        else:
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
