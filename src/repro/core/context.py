"""Miss-context discovery (paper Section III-A, Fig. 6).

Given an injection site with non-zero fan-out, find the combination
of *predictor basic blocks* whose presence in the LBR history best
predicts that this execution of the site leads to the target miss.

Following the paper:

* only the *presence* of blocks in the recent history matters, not
  their order (the exact-sequence formulation is intractable — the
  number of paths grows exponentially);
* predictor blocks are the blocks most frequent in miss-leading
  histories;
* combinations of up to ``max_predecessors`` predictors are scored by
  the conditional probability P(miss | context present), estimated
  from the profile per Bayes;
* the winning combination is encoded into the Cprefetch context-hash.

Two interchangeable engines score the combinations (selected by
:mod:`repro.kernel`): the reference keeps per-block occurrence bitsets
as Python bigints, so scoring a combination is two ANDs and two
popcounts; the columnar engine packs the same bitsets into ``uint64``
occurrence matrices and scores every combination of every size in one
batched popcount.  Candidate ranking breaks score ties by block id,
so both engines enumerate the identical pool and the identical
combination order — their chosen contexts match exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import kernel
from ..cfg.fanout import OccurrenceLabels, label_occurrences
from ..profiling.profiler import ExecutionProfile
from .config import ISpyConfig

_bit_count = kernel.bit_count


@dataclass(frozen=True)
class ContextResult:
    """The chosen context for one (site, miss line) pair."""

    blocks: Tuple[int, ...]
    #: P(miss | context present), estimated from the profile
    probability: float
    #: executions of the site matching the context
    support: int
    #: fraction of miss-leading executions the context matches
    recall: float
    #: the site's unconditioned P(miss) — what AsmDB would get
    base_probability: float

    @property
    def gain(self) -> float:
        return self.probability - self.base_probability


def _predictor_pool(
    profile: ExecutionProfile,
    labels: OccurrenceLabels,
    config: ISpyConfig,
) -> Tuple[List[int], List[int], int]:
    """Score candidate predictor blocks and build occurrence bitsets.

    Returns (pool_blocks, pool_masks, positive_mask) where bit *i* of
    a mask corresponds to the i-th labelled occurrence.
    """
    depth = config.lbr_depth

    positive_freq: Dict[int, int] = {}
    negative_freq: Dict[int, int] = {}
    mask_of: Dict[int, int] = {}
    positive_mask = 0
    n_pos = 0
    bit = 1
    window = profile.window
    for index, positive in zip(labels.indices, labels.leads_to_miss):
        # One pass per occurrence: frequency tables and the per-block
        # occurrence bitsets are filled from the same materialized
        # history, instead of re-walking every history per candidate.
        history = frozenset(window(index, depth))
        table = positive_freq if positive else negative_freq
        if positive:
            n_pos += 1
            positive_mask |= bit
        for block in history:
            table[block] = table.get(block, 0) + 1
            mask_of[block] = mask_of.get(block, 0) | bit
        bit <<= 1

    n_neg = labels.total - n_pos
    if n_pos == 0:
        return [], [], 0

    def score(block: int) -> float:
        p_pos = positive_freq.get(block, 0) / n_pos
        p_neg = negative_freq.get(block, 0) / n_neg if n_neg else 0.0
        return p_pos - p_neg

    # Ties broken by block id so the ranking (hence the pool, hence
    # the discovered context) is deterministic and engine-independent.
    ranked = sorted(positive_freq, key=lambda block: (-score(block), block))
    pool = [b for b in ranked if b != labels.site][: config.predictor_pool_size]
    masks = [mask_of[block] for block in pool]
    return pool, masks, positive_mask


def _search_reference(
    pool: Sequence[int],
    masks: Sequence[int],
    positive_mask: int,
    total_positives: int,
    config: ISpyConfig,
):
    """Sequential combination search via bigint AND + popcount."""
    indices = range(len(pool))
    min_support = config.min_context_support
    min_recall = config.min_context_recall

    best = None  # (probability, support, hits, combo)
    fallback = None
    fallback_score = -1.0

    for size in range(1, config.max_predecessors + 1):
        for combo in itertools.combinations(indices, size):
            combined = masks[combo[0]]
            for position in combo[1:]:
                combined &= masks[position]
                if not combined:
                    break
            support = _bit_count(combined)
            if support < min_support:
                continue
            hits = _bit_count(combined & positive_mask)
            probability = hits / support
            recall = hits / total_positives if total_positives else 0.0
            if recall >= min_recall and (
                best is None or (probability, support) > (best[0], best[1])
            ):
                best = (probability, support, hits, combo)
            score = probability * recall
            if score > fallback_score:
                fallback_score = score
                fallback = (probability, support, hits, combo)
    return best, fallback


#: (n_pool, max_predecessors) -> (combos tuple, padded pick matrix);
#: the enumeration is pool-independent, so one entry serves every site.
_COMBO_CACHE: Dict[Tuple[int, int], tuple] = {}


def _combo_table(n_pool: int, max_predecessors: int):
    import numpy as np

    key = (n_pool, max_predecessors)
    cached = _COMBO_CACHE.get(key)
    if cached is None:
        combos: List[Tuple[int, ...]] = []
        for size in range(1, max_predecessors + 1):
            combos.extend(itertools.combinations(range(n_pool), size))
        # Pad every combination to max width with a virtual pool row
        # (index n_pool) whose bitset is all-ones — the AND identity.
        picks = np.full((len(combos), max_predecessors), n_pool, dtype=np.int64)
        for row, combo in enumerate(combos):
            picks[row, : len(combo)] = combo
        cached = (tuple(combos), picks)
        _COMBO_CACHE[key] = cached
    return cached


#: the :class:`ISpyConfig` fields context discovery reads; with
#: ``(site, line)`` and the kernel gate they key its memo entries, so
#: variants that differ only elsewhere share one search
CONTEXT_CONFIG_FIELDS: Tuple[str, ...] = (
    "max_prefetch_distance",
    "context_discovery_occurrences",
    "predictor_pool_size",
    "max_predecessors",
    "lbr_depth",
    "min_context_support",
    "min_context_recall",
    "min_context_probability",
    "min_context_gain",
)

_UNSET = object()


def _key_suffix(config: ISpyConfig) -> tuple:
    """The memo key of a (site, line) pair's context, after the pair."""
    return (kernel.numpy_enabled(),) + tuple(
        getattr(config, name) for name in CONTEXT_CONFIG_FIELDS
    )


def discover_context(
    profile: ExecutionProfile,
    site: int,
    line: int,
    config: ISpyConfig,
) -> Optional[ContextResult]:
    """Find the best miss context for a prefetch of *line* at *site*.

    Returns None when no combination satisfies the probability,
    recall and support requirements — the caller then injects an
    unconditional prefetch instead.  Answers are memoized on the
    profile (:meth:`ExecutionProfile.analysis_memo`), where
    :func:`discover_contexts` may already have put them.
    """
    memo = profile.analysis_memo()
    key = (site, line) + _key_suffix(config)
    context = memo.contexts.get(key, _UNSET)
    if context is not _UNSET:
        memo.context_hits += 1
        return context
    discover_contexts(profile, [(site, line)], config)
    return memo.contexts[key]


def discover_contexts(
    profile: ExecutionProfile,
    pairs: Sequence[Tuple[int, int]],
    config: ISpyConfig,
) -> None:
    """Memoize :func:`discover_context` for every ``(site, line)`` pair
    of *pairs* the memo cannot answer yet.

    The columnar engine answers them all in one batched pass
    (:func:`_discover_contexts_columnar`); the reference searches pair
    by pair.
    """
    memo = profile.analysis_memo()
    suffix = _key_suffix(config)
    missing = [
        pair for pair in dict.fromkeys(pairs) if pair + suffix not in memo.contexts
    ]
    if not missing:
        return
    if kernel.numpy_enabled():
        found = _discover_contexts_columnar(profile, missing, config)
    else:
        found = [
            _discover_context_reference(profile, site, line, config)
            for site, line in missing
        ]
    for pair, context in zip(missing, found):
        memo.contexts[pair + suffix] = context


def _discover_context_reference(
    profile: ExecutionProfile,
    site: int,
    line: int,
    config: ISpyConfig,
) -> Optional[ContextResult]:
    labels = label_occurrences(
        profile,
        site,
        line,
        config.max_prefetch_distance,
        max_occurrences=config.context_discovery_occurrences,
    )
    if not labels.total or not labels.positives:
        return None
    # Bitset construction guarantees popcount(positive_mask) equals
    # the labelled positive count.
    total_positives = labels.positives
    pool, masks, positive_mask = _predictor_pool(profile, labels, config)
    if not pool:
        return None
    best, fallback = _search_reference(
        pool, masks, positive_mask, total_positives, config
    )
    chosen = best if best is not None else fallback
    if chosen is None:
        return None
    return _accept(
        config, pool, chosen, total_positives, labels.miss_probability
    )


def _accept(
    config: ISpyConfig,
    pool: Sequence[int],
    chosen: tuple,
    total_positives: int,
    base_probability: float,
) -> Optional[ContextResult]:
    """The :class:`ContextResult` of the search's chosen
    ``(probability, support, hits, combo)``, or None when it misses
    the probability or gain requirement."""
    probability, support, hits, combo = chosen
    if probability < config.min_context_probability:
        return None
    if probability - base_probability < config.min_context_gain:
        return None
    return ContextResult(
        blocks=tuple(sorted(pool[position] for position in combo)),
        probability=probability,
        support=support,
        recall=hits / total_positives,
        base_probability=base_probability,
    )


def _discover_contexts_columnar(
    profile: ExecutionProfile,
    pairs: Sequence[Tuple[int, int]],
    config: ISpyConfig,
) -> List[Optional[ContextResult]]:
    """:func:`discover_context` of every pair in one batched pass, in
    chunks of about :data:`repro.kernel.BATCH_ELEMENTS` LBR-history
    entries (:func:`repro.kernel.batch_chunks`).

    Per chunk: every pair's executions are labelled together (one
    ``searchsorted`` over per-line miss keys, the reference's
    ``bisect_right``); every execution's LBR history is reduced to its
    distinct blocks; one combined ``(pair, block)`` ``unique`` and two
    ``bincount`` calls give the predictor frequencies, and one ``lexsort``
    ranks every pair's pool by ``(-score, block)``.  The combination
    search then runs per pool size with a leading pair axis
    (:func:`_search_pools`).  Every float is the reference's operation
    on the same integers, so each answer matches it exactly.
    """
    import numpy as np

    arrays = profile.arrays()
    sites = np.array([site for site, _ in pairs], dtype=np.int64)
    executions = np.minimum(
        arrays.occurrence_counts(sites), config.context_discovery_occurrences
    )
    results: List[Optional[ContextResult]] = []
    for begin, end in kernel.batch_chunks(executions * config.lbr_depth):
        results += _contexts_chunk(
            arrays, pairs[begin:end], sites[begin:end], config
        )
    return results


def _contexts_chunk(
    arrays,
    pairs: Sequence[Tuple[int, int]],
    sites,
    config: ISpyConfig,
) -> List[Optional[ContextResult]]:
    import numpy as np

    limit = config.context_discovery_occurrences
    results: List[Optional[ContextResult]] = [None] * len(pairs)

    # -- label every pair's (subsampled) executions ----------------------
    full = arrays.occurrence_counts(sites)
    totals = np.minimum(full, limit)
    row_pair = np.repeat(np.arange(len(pairs), dtype=np.int64), totals)
    # Row i of a pair is its i-th labelled execution: bit i of its
    # bitsets.
    row_bit = np.arange(int(totals.sum()), dtype=np.int64) - (
        np.cumsum(totals) - totals
    )[row_pair]
    # The reference's subsample: execution int(i * (count / limit)).
    execution = row_bit.copy()
    sampled = (full > limit)[row_pair]
    execution[sampled] = (
        row_bit[sampled].astype(np.float64) * (full / limit)[row_pair[sampled]]
    ).astype(np.int64)
    rows = arrays.occurrence_at(sites[row_pair], execution)

    lines = list(dict.fromkeys(line for _, line in pairs))
    line_rank = {line: rank for rank, line in enumerate(lines)}
    per_line = [arrays.line_samples(line) for line in lines]
    sample_counts = np.array([len(i) for i, _ in per_line], dtype=np.int64)
    if not sample_counts.sum():
        return results
    stride = len(arrays.block_ids) + 1
    miss_keys = np.repeat(
        np.arange(len(lines), dtype=np.int64), sample_counts
    ) * stride + np.concatenate([i for i, _ in per_line])
    miss_cycles = np.concatenate([c for _, c in per_line])
    row_line = np.array(
        [line_rank[line] for _, line in pairs], dtype=np.int64
    )[row_pair]
    # bisect_right: the first miss of the row's line after the row.
    following = np.searchsorted(
        miss_keys, row_line * stride + rows, side="right"
    )
    in_line = following < np.cumsum(sample_counts)[row_line]
    gaps = (
        miss_cycles[np.minimum(following, len(miss_keys) - 1)]
        - arrays.block_cycles[rows]
    )
    labels = in_line & (gaps <= config.max_prefetch_distance)
    positives = np.bincount(
        row_pair, weights=labels, minlength=len(pairs)
    ).astype(np.int64)

    # -- predictor pools ---------------------------------------------------
    live_rows = np.flatnonzero(positives[row_pair] > 0)
    if not len(live_rows):
        return results
    depth = config.lbr_depth
    offsets = rows[live_rows, None] + np.arange(-depth, 0, dtype=np.int64)
    history = arrays.block_ids[np.maximum(offsets, 0)]
    history[offsets < 0] = -1
    # frozenset(window): each row's distinct blocks.
    history.sort(axis=1)
    distinct = np.ones(history.shape, dtype=bool)
    distinct[:, 1:] = history[:, 1:] != history[:, :-1]
    distinct &= history != -1
    entry_row = live_rows[np.flatnonzero(distinct) // depth]
    entry_block = history[distinct]
    span = int(entry_block.max()) + 1 if len(entry_block) else 1
    keys, inverse = np.unique(
        row_pair[entry_row] * span + entry_block, return_inverse=True
    )
    seen = np.bincount(inverse, minlength=len(keys))
    seen_positive = np.bincount(
        inverse, weights=labels[entry_row], minlength=len(keys)
    )
    key_pair = keys // span
    key_block = keys % span
    candidate = (seen_positive > 0) & (key_block != sites[key_pair])
    cand = np.flatnonzero(candidate)
    cand_pair = key_pair[cand]
    n_pos = positives[cand_pair]
    n_neg = totals[cand_pair] - n_pos
    p_pos = seen_positive[cand] / n_pos
    p_neg = np.where(
        n_neg > 0, (seen[cand] - seen_positive[cand]) / np.maximum(n_neg, 1), 0.0
    )
    order = np.lexsort((key_block[cand], -(p_pos - p_neg), cand_pair))
    ordered_pair = cand_pair[order]
    rank = np.arange(len(order)) - np.searchsorted(ordered_pair, ordered_pair)
    pooled = rank < config.predictor_pool_size
    pool_key = cand[order[pooled]]
    pool_pair = key_pair[pool_key]
    pool_index = np.full(len(keys), -1, dtype=np.int64)
    pool_index[pool_key] = rank[pooled]
    pool_size = np.bincount(pool_pair, minlength=len(pairs))

    # -- packed occurrence bitsets, then the search per pool size ----------
    member = np.flatnonzero(pool_index[inverse] >= 0)
    member_row = entry_row[member]
    members = (row_pair[member_row], pool_index[inverse[member]], row_bit[member_row])
    positive_rows = np.flatnonzero(labels)
    positive_bits = (row_pair[positive_rows], row_bit[positive_rows])
    pool_blocks = key_block[pool_key].tolist()
    pool_starts = np.cumsum(pool_size) - pool_size
    for size in np.unique(pool_size[pool_size > 0]).tolist():
        group = np.flatnonzero(pool_size == size)
        searched = _search_pools(
            group, size, totals, positives, members, positive_bits, config
        )
        for pair, chosen in zip(group.tolist(), searched):
            if chosen is None:
                continue
            start = int(pool_starts[pair])
            n_pos = int(positives[pair])
            results[pair] = _accept(
                config,
                pool_blocks[start : start + size],
                chosen,
                n_pos,
                n_pos / int(totals[pair]),
            )
    return results


def _search_pools(group, size, totals, positives, members, positive_bits, config):
    """The combination search of every pair in *group* (pools of
    *size* blocks), with a leading pair axis: returns each pair's
    chosen ``(probability, support, hits, combo)``, or None.

    Each pair's bitsets are packed little-endian into ``uint64``
    words (bit ``j`` of word ``w`` = execution ``64 * w + j``) and
    zero-padded to the group's widest pair: zero words add nothing to
    any support or hit count.  A virtual all-ones pool row pads every
    combination to ``max_predecessors`` picks (the AND identity).

    The selection replicates the reference's sequential scan: *best*
    is the first combination (in enumeration order) reaching the
    lexicographic maximum of ``(probability, support)`` among those
    meeting the support and recall requirements; *fallback* the first
    reaching the maximum ``probability * recall`` among those meeting
    the support requirement.  ``argmax``'s first-occurrence rule
    reproduces the strict-greater running comparisons.
    """
    import numpy as np

    combos, picks = _combo_table(size, config.max_predecessors)
    width = int((totals[group].max() + 63) // 64)
    member_pair, member_pool, member_bit = members
    positive_pair, positive_bit = positive_bits
    one = np.uint64(1)
    chosen: List[Optional[tuple]] = []
    weights = np.full(len(group), len(combos) * width)
    for begin, end in kernel.batch_chunks(weights):
        batch = group[begin:end]
        slot = np.full(len(totals), -1, dtype=np.int64)
        slot[batch] = np.arange(len(batch))
        words = np.zeros((len(batch), size + 1, width), dtype=np.uint64)
        words[:, size, :] = ~np.uint64(0)
        mine = slot[member_pair] >= 0
        bits = member_bit[mine]
        np.bitwise_or.at(
            words,
            (slot[member_pair[mine]], member_pool[mine], bits >> 6),
            one << (bits & 63).astype(np.uint64),
        )
        positive_words = np.zeros((len(batch), width), dtype=np.uint64)
        mine = slot[positive_pair] >= 0
        bits = positive_bit[mine]
        np.bitwise_or.at(
            positive_words,
            (slot[positive_pair[mine]], bits >> 6),
            one << (bits & 63).astype(np.uint64),
        )

        combined = words[:, picks[:, 0], :]
        for column in range(1, picks.shape[1]):
            combined &= words[:, picks[:, column], :]
        support = kernel.popcount_u64(combined).sum(axis=2, dtype=np.int64)
        hits = kernel.popcount_u64(combined & positive_words[:, None, :]).sum(
            axis=2, dtype=np.int64
        )

        eligible = support >= config.min_context_support
        with np.errstate(divide="ignore", invalid="ignore"):
            probability = hits / support
        recall = hits / positives[batch][:, None]
        fallback = np.argmax(
            np.where(eligible, probability * recall, -np.inf), axis=1
        )
        meets = eligible & (recall >= config.min_context_recall)
        top_probability = np.where(meets, probability, -np.inf).max(axis=1)
        at_top = meets & (probability == top_probability[:, None])
        top_support = np.where(at_top, support, -1).max(axis=1)
        best = np.argmax(at_top & (support == top_support[:, None]), axis=1)
        pick = np.where(meets.any(axis=1), best, fallback)
        row = np.arange(len(batch))
        for found, p, s, h, c in zip(
            eligible.any(axis=1).tolist(),
            probability[row, pick].tolist(),
            support[row, pick].tolist(),
            hits[row, pick].tolist(),
            pick.tolist(),
        ):
            chosen.append((p, s, h, combos[c]) if found else None)
    return chosen
