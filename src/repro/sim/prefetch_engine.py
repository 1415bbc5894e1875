"""Run-time prefetch execution (the I-SPY-aware CPU side).

When a basic block containing injected prefetch instructions executes,
the engine:

1. charges each injected instruction to the dynamic instruction count
   (they execute whether or not they fire — the condition gates the
   *memory operation*, not the instruction),
2. evaluates conditional instructions against the runtime-hash
   (counting Bloom filter over the 32-entry LBR),
3. expands coalescing bit-vectors into up to ``vector_bits + 1`` line
   prefetches, and
4. issues each non-resident line to the hierarchy, tracking its
   arrival cycle so a demand fetch that races a prefetch pays only the
   remaining latency.

The engine also owns ground-truth accounting for Fig. 21: when
configured with ``track_exact_context=True`` it compares the hashed
subset test against an exact last-32-blocks membership check and
counts hash-induced false positives.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from .hierarchy import MemoryHierarchy
from .stats import SimStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.bloom import LBRRuntimeHash
    from ..core.instructions import PrefetchPlan


class PrefetchEngine:
    """Executes a :class:`PrefetchPlan` during trace replay."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        plan: "PrefetchPlan",
        stats: SimStats,
        tracker: Optional["LBRRuntimeHash"] = None,
        track_exact_context: bool = False,
    ):
        self.hierarchy = hierarchy
        self.plan = plan
        self.stats = stats
        self.tracker = tracker
        #: line -> cycle at which a previously issued prefetch arrives
        self.inflight: Dict[int, float] = {}
        self._site_table = plan.site_table()

        self.track_exact_context = track_exact_context
        self._exact_history: Optional[Deque[int]] = (
            deque(maxlen=tracker.depth) if (track_exact_context and tracker) else None
        )
        #: conditional firings where the hash matched but the exact
        #: context was absent (Bloom false positives, Fig. 21)
        self.false_positive_firings = 0
        #: conditional firings where the exact context was present
        self.true_positive_firings = 0

    # -- per-block hook --------------------------------------------------

    def execute_site(self, block_id: int, now: float) -> int:
        """Run the prefetch instructions injected at *block_id*.

        Returns the number of prefetch instructions executed, so the
        core can charge their pipeline slots.
        """
        instrs = self._site_table.get(block_id)
        if not instrs:
            return 0

        stats = self.stats
        executed = 0
        for instr in instrs:
            executed += 1
            mask = instr.context_mask
            if mask is not None and self.tracker is not None:
                if not self.tracker.matches(mask):
                    stats.prefetches_suppressed += 1
                    continue
                if self._exact_history is not None and instr.context_blocks:
                    present = set(self._exact_history)
                    if all(b in present for b in instr.context_blocks):
                        self.true_positive_firings += 1
                    else:
                        self.false_positive_firings += 1
            self._issue(instr.target_lines(), now)
        stats.prefetch_instructions_executed += executed
        return executed

    def _issue(self, lines, now: float) -> None:
        stats = self.stats
        hierarchy = self.hierarchy
        inflight = self.inflight
        l1i_contains = hierarchy.l1i.contains
        fill_port_request = hierarchy.fill_port.request
        for line in lines:
            if line in inflight or l1i_contains(line):
                # resident or already racing towards the cache
                stats.prefetches_resident += 1
                continue
            level = hierarchy.residence_level(line)
            hierarchy.prefetch_fill(line)
            stats.prefetches_issued += 1
            # every issued prefetch occupies the finite fill port —
            # useless ones delay the demand fills queued behind them
            arrival = fill_port_request(now, level)
            if arrival > now:
                inflight[line] = arrival

    # -- history maintenance ----------------------------------------------

    def retire_block(self, block_id: int) -> None:
        """Push a retired block into the LBR-based runtime-hash."""
        if self.tracker is not None:
            self.tracker.push(block_id)
        if self._exact_history is not None:
            self._exact_history.append(block_id)

    # -- demand-side interface ---------------------------------------------

    def arrival_of(self, line: int) -> Optional[float]:
        """Pop the pending arrival cycle for *line*, if one exists."""
        return self.inflight.pop(line, None)

    # -- columnar-replay interface -------------------------------------------

    @property
    def exact_history(self) -> Optional[Deque[int]]:
        """The exact last-``depth``-blocks window (Fig. 21 ground truth)."""
        return self._exact_history

    def is_pristine(self) -> bool:
        """True when no replay has pushed history or issued prefetches.

        The columnar plan replay recomputes engine state from scratch,
        so a pre-seeded engine (warm tracker, leftover in-flight lines)
        must take the reference loop instead.
        """
        return (
            not self.inflight
            and (self.tracker is None or not self.tracker.history())
            and not self._exact_history
            and self.false_positive_firings == 0
            and self.true_positive_firings == 0
        )

    def restore_runtime_state(
        self,
        inflight: Dict[int, float],
        tracker_history,
        exact_history,
        true_positives: int,
        false_positives: int,
    ) -> None:
        """Install post-replay runtime state computed by the columnar path.

        ``tracker_history`` is the suffix of *hashed* retired blocks
        (at most ``tracker.depth`` of them, oldest first);
        ``exact_history`` is the suffix of **all** retired blocks for
        the Fig. 21 ground-truth window.
        """
        self.inflight = dict(inflight)
        if self.tracker is not None:
            self.tracker.rebuild(tracker_history)
        if self._exact_history is not None:
            self._exact_history.clear()
            self._exact_history.extend(exact_history)
        self.true_positive_firings = true_positives
        self.false_positive_firings = false_positives

    # -- reporting -----------------------------------------------------------

    @property
    def conditional_false_positive_rate(self) -> float:
        """Fraction of conditional firings caused by hash collisions."""
        total = self.false_positive_firings + self.true_positive_firings
        if not total:
            return 0.0
        return self.false_positive_firings / total
