"""Columnar (NumPy) view of a :class:`Program` and its traces.

The object model in :mod:`repro.sim.trace` is the API every analysis
works against; this module lowers it to flat arrays once per program
so the array-replay kernel, the vectorized profiler and the planner
can operate at array speed:

* a CSR block→line layout (``line_starts``/``line_data``) holding each
  block's cache lines in fetch order;
* per-block line counts, byte sizes and instruction counts;
* an O(1) block-id→row lookup used to lower whole traces at once.

The view is cached on the :class:`Program` instance (programs are
immutable after construction), so repeated replays of the same program
pay the lowering cost once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import BlockTrace, Program

_CACHE_ATTR = "_columnar_view"


class ColumnarProgram:
    """Array mirror of a :class:`Program`."""

    def __init__(self, program: "Program"):
        blocks = list(program)
        self.num_blocks = len(blocks)
        #: row order follows ``Program`` iteration order (insertion
        #: order of block ids), so ``rows`` and ``block_ids`` align.
        self.block_ids = np.array(
            [b.block_id for b in blocks], dtype=np.int64
        )
        self.instruction_counts = np.array(
            [b.instruction_count for b in blocks], dtype=np.int64
        )
        self.size_bytes = np.array([b.size_bytes for b in blocks], dtype=np.int64)

        # Per-block lines are the consecutive cache lines from the
        # block's first to its last byte (see BlockInfo.lines); derive
        # the whole CSR table from addresses in one shot.
        from .params import CACHE_LINE_SHIFT

        addresses = np.array([b.address for b in blocks], dtype=np.int64)
        first = addresses >> CACHE_LINE_SHIFT
        last = (addresses + self.size_bytes - 1) >> CACHE_LINE_SHIFT
        counts = last - first + 1
        self.line_counts = counts
        self.line_starts = np.zeros(self.num_blocks + 1, dtype=np.int64)
        np.cumsum(counts, out=self.line_starts[1:])
        total = int(self.line_starts[-1])
        self.line_data = (
            np.repeat(first, counts)
            + np.arange(total, dtype=np.int64)
            - np.repeat(self.line_starts[:-1], counts)
        )

        #: per-geometry caches built lazily by :meth:`line_set_pairs`
        self._pair_cache: dict = {}

        # Block-id -> row lookup.  Synthesized programs use dense ids,
        # which makes the lookup a plain indexed load; sparse id spaces
        # fall back to binary search over the sorted ids.
        min_id = int(self.block_ids.min())
        max_id = int(self.block_ids.max())
        span = max_id - min_id + 1
        if min_id >= 0 and span <= 4 * self.num_blocks + 64:
            lookup = np.full(span, -1, dtype=np.int64)
            lookup[self.block_ids - min_id] = np.arange(
                self.num_blocks, dtype=np.int64
            )
            self._dense_lookup = lookup
            self._dense_base = min_id
            self._sorted_ids = None
            self._sorted_rows = None
        else:
            self._dense_lookup = None
            self._dense_base = 0
            order = np.argsort(self.block_ids, kind="stable")
            self._sorted_ids = self.block_ids[order]
            self._sorted_rows = order

    # -- lowering -------------------------------------------------------

    def rows_for(self, block_ids) -> np.ndarray:
        """Map an array/sequence of block ids to row indices."""
        ids = np.asarray(block_ids, dtype=np.int64)
        if self._dense_lookup is not None:
            rows = self._dense_lookup[ids - self._dense_base]
        else:
            positions = np.searchsorted(self._sorted_ids, ids)
            rows = self._sorted_rows[positions]
        return rows

    def trace_rows(self, trace: "BlockTrace") -> np.ndarray:
        """Lower a trace to per-execution program rows."""
        return self.rows_for(trace.block_ids)

    def shard_bounds(self, rows: np.ndarray, shard_insns: int) -> list:
        """Half-open ``(start, stop)`` trace ranges of the greedy
        instruction-budget cut, vectorized.

        Must produce exactly the same cut as the pure-Python
        :func:`repro.sim.trace.shard_bounds` (a differential test holds
        the two together): a shard closes at the first position whose
        block brings the running instruction total to at least
        ``shard_insns``.
        """
        if shard_insns <= 0:
            raise ValueError(
                f"shard_insns must be positive, got {shard_insns}"
            )
        cumulative = np.cumsum(self.instruction_counts[rows])
        total = len(rows)
        bounds = []
        start = 0
        base = 0
        while start < total:
            cut = int(np.searchsorted(cumulative, base + shard_insns, "left"))
            if cut >= total:
                bounds.append((start, total))
                break
            bounds.append((start, cut + 1))
            base = int(cumulative[cut])
            start = cut + 1
        return bounds

    def line_set_pairs(self, num_sets: int) -> list:
        """Per-row tuples of ``(line, set_index)`` pairs for one geometry.

        The plan-aware replay loop walks a block's lines with the L1I
        set index already resolved; caching per ``num_sets`` means each
        (program, geometry) pair pays the flattening once.
        """
        pairs = self._pair_cache.get(num_sets)
        if pairs is None:
            lines = self.line_data.tolist()
            sets = (self.line_data % num_sets).tolist()
            starts = self.line_starts.tolist()
            pairs = [
                tuple(zip(lines[starts[row] : starts[row + 1]],
                          sets[starts[row] : starts[row + 1]]))
                for row in range(self.num_blocks)
            ]
            self._pair_cache[num_sets] = pairs
        return pairs


def columnar_view(program: "Program") -> ColumnarProgram:
    """The (cached) columnar mirror of *program*."""
    view = getattr(program, _CACHE_ATTR, None)
    if view is None:
        view = ColumnarProgram(program)
        setattr(program, _CACHE_ATTR, view)
    return view
