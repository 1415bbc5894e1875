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


def _predictor_pool_columnar(
    profile: ExecutionProfile,
    labels: OccurrenceLabels,
    config: ISpyConfig,
):
    """Columnar pool construction: the same ranking from arrays.

    Returns (pool, words, positive_words) where ``words[i]`` is pool
    block *i*'s occurrence bitset packed little-endian into ``uint64``
    lanes (bit ``j`` of lane ``w`` = occurrence ``64*w + j``).
    """
    import numpy as np

    arrays = profile.arrays()
    n_occ = labels.total
    depth = config.lbr_depth

    # The (site, occurrence-set, depth) windows are line-independent,
    # so context discovery over many miss lines of one site reuses
    # them.  Distinct occurrence subsamples always differ in length,
    # which makes the length part of the key sufficient.
    cache_key = (labels.site, n_occ, depth)
    cached = arrays.window_cache.get(cache_key)
    if cached is None:
        block_ids = arrays.block_ids
        indices = np.asarray(labels.indices, dtype=np.int64)

        # Window matrix: each row holds the (≤ depth) blocks preceding
        # one occurrence; out-of-trace positions become the -1 sentinel.
        offsets = (
            indices[:, None] + np.arange(-depth, 0, dtype=np.int64)[None, :]
        )
        valid = offsets >= 0
        values = block_ids[np.where(valid, offsets, 0)]
        values[~valid] = -1

        # Distinct blocks per row (presence, not multiplicity): sort
        # each row and keep first occurrences, exactly
        # frozenset(window).
        values.sort(axis=1)
        distinct = np.ones(values.shape, dtype=bool)
        distinct[:, 1:] = values[:, 1:] != values[:, :-1]
        distinct &= values != -1
        entry_rows = np.nonzero(distinct)[0]
        entry_blocks = values[distinct]

        unique_blocks, entry_ids = np.unique(
            entry_blocks, return_inverse=True
        )
        cached = (entry_rows, entry_ids, unique_blocks)
        arrays.window_cache[cache_key] = cached
    entry_rows, entry_ids, unique_blocks = cached
    positives = np.asarray(labels.leads_to_miss, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = labels.total - n_pos
    if n_pos == 0 or len(unique_blocks) == 0:
        return [], None, None

    entry_positive = positives[entry_rows]
    pos_freq = np.bincount(
        entry_ids[entry_positive], minlength=len(unique_blocks)
    )
    neg_freq = np.bincount(
        entry_ids[~entry_positive], minlength=len(unique_blocks)
    )

    candidates = np.flatnonzero(pos_freq > 0)
    p_pos = pos_freq[candidates] / n_pos
    p_neg = (
        neg_freq[candidates] / n_neg
        if n_neg
        else np.zeros(len(candidates), dtype=np.float64)
    )
    scores = p_pos - p_neg
    # lexsort: primary key last — descending score, ties by block id.
    order = np.lexsort((unique_blocks[candidates], -scores))
    ranked = unique_blocks[candidates][order].tolist()
    pool = [b for b in ranked if b != labels.site][: config.predictor_pool_size]
    if not pool:
        return pool, None, None

    # Occurrence-membership matrix for the pool, packed into uint64.
    pool_row_of = np.full(len(unique_blocks), -1, dtype=np.int64)
    pool_row_of[np.searchsorted(unique_blocks, pool)] = np.arange(len(pool))
    entry_pool_rows = pool_row_of[entry_ids]
    in_pool = entry_pool_rows >= 0

    n_words = (n_occ + 63) // 64
    member = np.zeros((len(pool), n_words * 64), dtype=bool)
    member[entry_pool_rows[in_pool], entry_rows[in_pool]] = True
    lane_weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    words = (
        member.reshape(len(pool), n_words, 64).astype(np.uint64) * lane_weights
    ).sum(axis=2, dtype=np.uint64)

    positive_bits = np.zeros(n_words * 64, dtype=bool)
    positive_bits[:n_occ] = positives
    positive_words = (
        positive_bits.reshape(n_words, 64).astype(np.uint64) * lane_weights
    ).sum(axis=1, dtype=np.uint64)
    return pool, words, positive_words


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


def _search_columnar(
    pool: Sequence[int],
    words,
    positive_words,
    total_positives: int,
    config: ISpyConfig,
):
    """Batched combination search: every size in one popcount pass.

    Replicates the sequential scan's selection exactly: *best* is the
    first combination (in enumeration order) achieving the
    lexicographic maximum of ``(probability, support)`` among those
    meeting the support and recall requirements; *fallback* is the
    first achieving the maximum ``probability * recall``.  Batch
    maxima plus ``argmax``'s first-occurrence rule reproduce the
    strict-greater running comparisons.
    """
    import numpy as np

    n_pool = len(pool)
    combos, picks = _combo_table(n_pool, config.max_predecessors)
    padded = np.concatenate(
        [words, np.full((1, words.shape[1]), ~np.uint64(0))]
    )
    combined = padded[picks[:, 0]]
    for column in range(1, picks.shape[1]):
        combined = combined & padded[picks[:, column]]
    support = kernel.popcount_u64(combined).sum(axis=1, dtype=np.int64)
    hits = kernel.popcount_u64(combined & positive_words).sum(
        axis=1, dtype=np.int64
    )

    eligible = np.flatnonzero(support >= config.min_context_support)
    if not len(eligible):
        return None, None
    sup = support[eligible]
    hit = hits[eligible]
    probability = hit / sup
    recall = hit / total_positives
    score = probability * recall

    row = int(np.argmax(score))
    fallback = (
        float(probability[row]),
        int(sup[row]),
        int(hit[row]),
        combos[int(eligible[row])],
    )

    best = None
    meets_recall = np.flatnonzero(recall >= config.min_context_recall)
    if len(meets_recall):
        probs = probability[meets_recall]
        p_star = float(probs.max())
        at_p = meets_recall[probs == p_star]
        sups = sup[at_p]
        s_star = int(sups.max())
        first = int(at_p[int(np.argmax(sups == s_star))])
        best = (p_star, s_star, int(hit[first]), combos[int(eligible[first])])
    return best, fallback


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
    profile (:meth:`ExecutionProfile.analysis_memo`).
    """
    memo = profile.analysis_memo()
    key = (site, line, kernel.numpy_enabled()) + tuple(
        getattr(config, name) for name in CONTEXT_CONFIG_FIELDS
    )
    context = memo.contexts.get(key, _UNSET)
    if context is not _UNSET:
        memo.context_hits += 1
        return context
    context = _discover_context(profile, site, line, config)
    memo.contexts[key] = context
    return context


def _discover_context(
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
    base_probability = labels.miss_probability

    # Bitset construction guarantees popcount(positive_mask) equals
    # the labelled positive count, so both engines share this total.
    total_positives = labels.positives

    if kernel.numpy_enabled():
        pool, words, positive_words = _predictor_pool_columnar(
            profile, labels, config
        )
        if not pool:
            return None
        best, fallback = _search_columnar(
            pool, words, positive_words, total_positives, config
        )
    else:
        pool, masks, positive_mask = _predictor_pool(profile, labels, config)
        if not pool:
            return None
        best, fallback = _search_reference(
            pool, masks, positive_mask, total_positives, config
        )

    chosen = best if best is not None else fallback
    if chosen is None:
        return None
    probability, support, hits, combo = chosen
    if probability < config.min_context_probability:
        return None
    if probability - base_probability < config.min_context_gain:
        return None
    return ContextResult(
        blocks=tuple(sorted(pool[position] for position in combo)),
        probability=probability,
        support=support,
        recall=hits / total_positives if total_positives else 0.0,
        base_probability=base_probability,
    )
