"""The runtime-hash hardware model (paper Section III-A, Fig. 7).

I-SPY extends the CPU with a rolling *runtime-hash* of the 32-entry
LBR: a counting Bloom filter with one small saturating-free counter
per context-hash bit.  When a branch retires, the new source block's
hash bits increment their counters and the bits of the entry falling
out of the 32-deep FIFO decrement theirs.  A tiny reduction turns each
counter into an "is-nonzero" bit; a conditional prefetch fires iff its
context-hash bits are a *subset* of those bits.

A push increments the new entry's bits before the oldest entry is
evicted, so a counter momentarily accounts ``depth + 1`` entries.  The
counter width is therefore derived, the way hardware would size it,
from the depth and the most times one block sets a single bit:
``(depth + 1) x that multiplicity`` must fit.  At the paper's 32-entry
LBR with one hash per block that is 33, i.e. the 6-bit counters of
Fig. 7; a deeper LBR gets wider counters, so no counter can overflow.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Deque, Iterable, Mapping, Sequence, Tuple

#: LBR depth on x86-64 (paper Section IV).
LBR_DEPTH = 32


class LBRRuntimeHash:
    """Counting-Bloom-filter digest of the last-32-block history.

    ``bit_positions`` maps each basic-block id to the hash-bit
    positions its address sets (precomputed by
    :func:`repro.core.hashing.bit_position_table`).  ``hash_bits`` is
    the context-hash width (16 in the paper's final design; Fig. 21
    sweeps it).
    """

    def __init__(
        self,
        bit_positions: Mapping[int, Tuple[int, ...]],
        hash_bits: int = 16,
        depth: int = LBR_DEPTH,
    ):
        if hash_bits <= 0:
            raise ValueError("hash_bits must be positive")
        if depth <= 0:
            raise ValueError("LBR depth must be positive")
        self.hash_bits = hash_bits
        self.depth = depth
        self._positions = bit_positions
        self._counters = [0] * hash_bits
        self._fifo: Deque[int] = deque()
        self._bits = 0  # cached is-nonzero reduction

    # -- hardware operations -------------------------------------------

    def push(self, block_id: int) -> None:
        """Retire a branch whose source block is *block_id*."""
        positions = self._positions.get(block_id)
        if positions is None:
            # Blocks outside the hashed program (e.g. JITted code the
            # paper scopes out) leave the runtime-hash untouched.
            return
        self._fifo.append(block_id)
        for bit in positions:
            self._counters[bit] += 1
            self._bits |= 1 << bit
        if len(self._fifo) > self.depth:
            evicted = self._fifo.popleft()
            for bit in self._positions[evicted]:
                count = self._counters[bit] - 1
                self._counters[bit] = count
                if count == 0:
                    self._bits &= ~(1 << bit)

    def bits(self) -> int:
        """The is-nonzero reduction of the counters (runtime-hash)."""
        return self._bits

    def matches(self, context_mask: int) -> bool:
        """Subset test: all context-hash bits present in runtime-hash."""
        return (context_mask & ~self._bits) == 0

    # -- introspection ----------------------------------------------------

    @property
    def positions(self) -> Mapping[int, Tuple[int, ...]]:
        """The block-id → hash-bit-positions table this filter hashes with."""
        return self._positions

    @cached_property
    def counter_bits(self) -> int:
        """Counter width that holds the largest possible count.

        A counter peaks at ``depth + 1`` entries (the new entry is
        counted before the oldest is evicted) times the most times one
        block sets a single bit: 6 bits at the paper's depth 32.
        """
        per_entry = max(
            (
                max(map(pos.count, pos))
                for pos in self._positions.values()
                if pos
            ),
            default=1,
        )
        return ((self.depth + 1) * per_entry).bit_length()

    def history(self) -> Tuple[int, ...]:
        """Current LBR contents, oldest first (for tests/examples)."""
        return tuple(self._fifo)

    def counters(self) -> Sequence[int]:
        return tuple(self._counters)

    def reset(self) -> None:
        self._counters = [0] * self.hash_bits
        self._fifo.clear()
        self._bits = 0

    def rebuild(self, history: Iterable[int]) -> None:
        """Reset, then replay *history* (oldest first) through :meth:`push`.

        Because the filter's state is a pure function of the last
        ``depth`` hashed pushes, replaying that suffix reproduces the
        exact FIFO, counters and bit reduction of any longer push
        sequence ending in it — which is how the columnar replay
        restores the tracker without walking the whole trace.
        """
        self.reset()
        for block_id in history:
            self.push(block_id)

    # -- software reference model -----------------------------------------

    def reference_bits(self) -> int:
        """Recompute the runtime-hash from the FIFO contents.

        Used by property tests to prove the incremental counter
        maintenance matches a from-scratch evaluation.
        """
        mask = 0
        for block_id in self._fifo:
            for bit in self._positions[block_id]:
                mask |= 1 << bit
        return mask


def exact_history_match(
    history: Iterable[int],
    context_blocks: Iterable[int],
) -> bool:
    """Ground-truth context check: are all context blocks in history?

    This is what the hashed subset test approximates; comparing the
    two measures the false-positive rate of Fig. 21.
    """
    present = set(history)
    return all(block in present for block in context_blocks)
