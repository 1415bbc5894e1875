"""Online profiling: LBR + PEBS over a simulated execution.

:func:`profile_execution` replays a trace through the same timing
model used for evaluation, recording what the paper's production
profiling records (Fig. 9, step 1):

* the dynamic block sequence with per-block cycle timestamps (the LBR
  stream — the paper notes "the LBR profile already includes dynamic
  cycle information for each basic block", which is how I-SPY finds
  prefetch-window predecessors without a per-application IPC guess);
* sampled L1I miss events (PEBS ``frontend_retired.l1i_miss``);
* dynamic-CFG edge and block counts.

The resulting :class:`ExecutionProfile` is the single input to the
offline analyses in :mod:`repro.core` and :mod:`repro.baselines`.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import kernel
from ..sim.cpu import TraceObserver, simulate
from ..sim.params import MachineParams
from ..sim.stats import SimStats
from ..sim.trace import BlockTrace, Program
from .lbr import LBR_DEPTH
from .pebs import MissSample, PEBSSampler


class ProfileArrays:
    """Columnar mirror of an :class:`ExecutionProfile`.

    Built lazily (and cached) the first time an array consumer asks;
    the object-model lists stay the API and the serialized form.
    """

    def __init__(self, profile: "ExecutionProfile"):
        import numpy as np

        self.np = np
        self.block_ids = np.asarray(profile.block_ids, dtype=np.int64)
        self.block_cycles = np.asarray(profile.block_cycles, dtype=np.float64)
        self.cumulative_instructions = np.asarray(
            profile.cumulative_instructions, dtype=np.int64
        )
        # CSR of per-block occurrence positions: block b's executions
        # are ``_occurrence_order[_occurrence_starts[b]:...[b + 1]]``,
        # ascending.
        self._occurrence_order = np.argsort(self.block_ids, kind="stable")
        counts = np.bincount(self.block_ids)
        self._occurrence_starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self._occurrence_starts[1:])
        self._occurrence_keys = None
        # Per-line miss samples (trace indices ascending, as recorded).
        lines: Dict[int, Tuple[List[int], List[float]]] = {}
        for sample in profile.miss_samples:
            entry = lines.setdefault(sample.line, ([], []))
            entry[0].append(sample.trace_index)
            entry[1].append(sample.cycle)
        self._line_samples = {
            line: (
                np.asarray(indices, dtype=np.int64),
                np.asarray(cycles, dtype=np.float64),
            )
            for line, (indices, cycles) in lines.items()
        }
        self._empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    def occurrences_of(self, block_id: int):
        """Trace indices where *block_id* executed (ascending array)."""
        if not 0 <= block_id < len(self._occurrence_starts) - 1:
            return self.np.zeros(0, dtype=self.np.int64)
        starts = self._occurrence_starts
        return self._occurrence_order[starts[block_id] : starts[block_id + 1]]

    def occurrence_counts(self, block_ids):
        """How many times each of *block_ids* (an array) executed."""
        np = self.np
        starts = self._occurrence_starts
        known = (block_ids >= 0) & (block_ids < len(starts) - 1)
        ids = np.where(known, block_ids, 0)
        return np.where(known, starts[ids + 1] - starts[ids], 0)

    def occurrence_at(self, block_ids, ranks):
        """Elementwise: the trace index of execution ``ranks[i]``
        (0-based, ascending) of block ``block_ids[i]``."""
        return self._occurrence_order[self._occurrence_starts[block_ids] + ranks]

    def occurrences_before(self, block_ids, positions):
        """Elementwise: how many executions of ``block_ids[i]`` lie at
        trace indices below ``positions[i]`` (both int64 arrays, every
        position in ``[0, len(trace)]``).

        One ``searchsorted`` over the CSR flattened to the sorted keys
        ``block * (len + 1) + position``, built on first use.
        """
        np = self.np
        stride = len(self.block_ids) + 1
        if self._occurrence_keys is None:
            order = self._occurrence_order
            self._occurrence_keys = self.block_ids[order] * stride + order
        found = np.searchsorted(
            self._occurrence_keys, block_ids * stride + positions
        )
        return found - self._occurrence_starts[block_ids]

    def line_samples(self, line: int):
        """(trace_index[], cycle[]) of the sampled misses of *line*."""
        return self._line_samples.get(line, self._empty)


class AnalysisMemo:
    """Offline-analysis answers shared by every plan built from one
    :class:`ExecutionProfile`.

    A sweep builds many plans from one profile, and most variants
    differ only in fields a given analysis step never reads, so they
    would re-derive identical per-line answers.  Each table is keyed
    on exactly the inputs its answer depends on, plus
    :func:`repro.kernel.numpy_enabled` so reference and columnar
    entries never serve each other:

    * ``candidates`` — ranked injection candidates
      (:func:`repro.core.injection.select_site`); the columnar engine
      fills a whole ranking group — every frequent line of one window
      and distance estimator — on its first miss;
    * ``path_fanouts`` — AsmDB's per-candidate path fan-out;
    * ``contexts`` — :func:`repro.core.context.discover_context`
      results (``None`` included); a plan build fills every pair it
      needs at once (:func:`repro.core.context.discover_contexts`).

    ``site_hits`` / ``context_hits`` count lookups served from the
    memo.  Like the other profile caches, the memo assumes the profile
    is not mutated once analysis has started.
    """

    __slots__ = (
        "candidates", "path_fanouts", "contexts", "site_hits", "context_hits",
    )

    def __init__(self) -> None:
        self.candidates: Dict[tuple, tuple] = {}
        self.path_fanouts: Dict[tuple, float] = {}
        self.contexts: Dict[tuple, object] = {}
        self.site_hits = 0
        self.context_hits = 0


@dataclass
class ExecutionProfile:
    """A miss-annotated execution recording."""

    program_name: str
    block_ids: List[int]
    block_cycles: List[float]
    miss_samples: List[MissSample]
    edge_counts: Counter
    block_counts: Counter
    #: cumulative retired instructions before each trace index — used
    #: by AsmDB's IPC-based distance estimation (I-SPY uses the exact
    #: per-block cycles above instead; Section IV)
    cumulative_instructions: List[int] = field(default_factory=list)
    lbr_depth: int = LBR_DEPTH
    #: statistics of the profiling run itself (the no-prefetch
    #: baseline measurement comes for free)
    baseline_stats: Optional[SimStats] = None
    # lazily built lookup caches: derived data, so not compared
    _occurrence_index: Dict[int, List[int]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _line_samples: Optional[Dict[int, List[MissSample]]] = field(
        default=None, repr=False, compare=False
    )

    # -- path context ---------------------------------------------------

    def window(self, index: int, depth: Optional[int] = None) -> Sequence[int]:
        """The LBR window: blocks executed just before trace *index*.

        Excludes the block at *index* itself, matching hardware: the
        LBR holds branches retired *before* the current fetch.
        """
        depth = depth or self.lbr_depth
        start = max(0, index - depth)
        return self.block_ids[start:index]

    def occurrences(self, block_id: int) -> List[int]:
        """All trace indices where *block_id* executed (ascending)."""
        if not self._occurrence_index:
            index: Dict[int, List[int]] = {}
            for position, bid in enumerate(self.block_ids):
                index.setdefault(bid, []).append(position)
            self._occurrence_index = index
        return self._occurrence_index.get(block_id, [])

    @property
    def average_cpi(self) -> float:
        """Whole-profile cycles per instruction (stalls included).

        This is the "average application-specific IPC" AsmDB uses to
        convert instruction counts into its prefetch window.
        """
        if self.baseline_stats is not None and self.baseline_stats.cycles:
            return (
                self.baseline_stats.cycles
                / max(1, self.baseline_stats.program_instructions)
            )
        if not self.cumulative_instructions:
            return 1.0
        total_instr = self.cumulative_instructions[-1]
        return self.block_cycles[-1] / total_instr if total_instr else 1.0

    def estimated_cycle_distance(self, from_index: int, to_index: int) -> float:
        """IPC-estimated cycles between two trace positions."""
        instr = (
            self.cumulative_instructions[to_index]
            - self.cumulative_instructions[from_index]
        )
        return instr * self.average_cpi

    # -- miss aggregation ---------------------------------------------------

    def miss_counts_by_line(self) -> Counter:
        counts: Counter = Counter()
        for sample in self.miss_samples:
            counts[sample.line] += 1
        return counts

    def samples_for_line(self, line: int) -> List[MissSample]:
        if self._line_samples is None:
            grouped: Dict[int, List[MissSample]] = {}
            for sample in self.miss_samples:
                grouped.setdefault(sample.line, []).append(sample)
            self._line_samples = grouped
        return self._line_samples.get(line, [])

    def next_miss_within(
        self, line: int, index: int, max_cycles: float
    ) -> Optional[MissSample]:
        """The first sampled miss of *line* after trace *index* whose
        cycle distance from *index* is at most *max_cycles*."""
        samples = self.samples_for_line(line)
        indices = [sample.trace_index for sample in samples]
        position = bisect.bisect_right(indices, index)
        if position >= len(samples):
            return None
        candidate = samples[position]
        if candidate.cycle - self.block_cycles[index] <= max_cycles:
            return candidate
        return None

    # -- columnar view ---------------------------------------------------

    def arrays(self) -> "ProfileArrays":
        """The cached :class:`ProfileArrays` mirror of this profile.

        Stored as a non-field attribute so serialization (``asdict``)
        and equality are untouched.  Callers must check
        :func:`repro.kernel.numpy_enabled` first.
        """
        view = getattr(self, "_profile_arrays", None)
        if view is None:
            view = ProfileArrays(self)
            self._profile_arrays = view
        return view

    def analysis_memo(self) -> AnalysisMemo:
        """The cached :class:`AnalysisMemo` of this profile, a non-field
        attribute like :meth:`arrays`, so serialization and equality
        are untouched."""
        memo = getattr(self, "_analysis_memo", None)
        if memo is None:
            memo = AnalysisMemo()
            self._analysis_memo = memo
        return memo

    # -- summary ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.block_ids)

    @property
    def sampled_miss_count(self) -> int:
        return len(self.miss_samples)


class _ProfilingObserver(TraceObserver):
    """Collects the LBR/PEBS view during a profiling replay."""

    def __init__(self, sample_period: int):
        self.block_cycles: List[float] = []
        self.pebs = PEBSSampler(sample_period)

    def on_block(self, index: int, block_id: int, cycle: float) -> None:
        self.block_cycles.append(cycle)

    def on_miss(self, index: int, block_id: int, line: int, cycle: float) -> None:
        self.pebs.observe(index, block_id, line, cycle)


def profile_execution(
    program: Program,
    trace: BlockTrace,
    machine: Optional[MachineParams] = None,
    sample_period: int = 1,
    data_traffic=None,
    shard_insns: Optional[int] = None,
) -> ExecutionProfile:
    """Profile one execution of *trace* (no prefetching active).

    With ``shard_insns`` (or a :class:`~repro.sim.trace.ShardedTrace`)
    the profiling replay streams shard by shard — the recorded profile
    is bit-identical either way.  The profile itself is whole-trace
    (per-position cycles and samples), so a sharded *trace* is
    materialized for the output lists while the replay stays chunked.
    """
    from ..obs.trace import get_tracer
    from ..sim.trace import ShardedTrace

    if isinstance(trace, ShardedTrace):
        if shard_insns is None:
            shard_insns = trace.shard_insns
        trace = trace.materialize()
    columnar = kernel.numpy_enabled()
    span_args = dict(
        program=program.name,
        blocks=len(trace.block_ids),
        backend="columnar" if columnar else "reference",
    )
    if shard_insns is not None:
        span_args["shard_insns"] = shard_insns
    with get_tracer().span("profiling:execution", **span_args):
        if columnar:
            return _profile_execution_columnar(
                program, trace, machine, sample_period, data_traffic,
                shard_insns,
            )
        return _profile_execution_reference(
            program, trace, machine, sample_period, data_traffic,
            shard_insns,
        )


def _profile_execution_reference(
    program: Program,
    trace: BlockTrace,
    machine: Optional[MachineParams],
    sample_period: int,
    data_traffic,
    shard_insns: Optional[int] = None,
) -> ExecutionProfile:
    """Observer-based profiling replay (the semantic oracle)."""
    observer = _ProfilingObserver(sample_period)
    stats = simulate(
        program,
        trace,
        machine=machine,
        observer=observer,
        data_traffic=data_traffic,
        shard_insns=shard_insns,
    )

    edge_counts: Counter = Counter(
        zip(trace.block_ids, trace.block_ids[1:])
    )
    block_counts: Counter = Counter(trace.block_ids)

    instr_of = {block.block_id: block.instruction_count for block in program}
    cumulative = [0] * len(trace.block_ids)
    running = 0
    for index, block_id in enumerate(trace.block_ids):
        cumulative[index] = running
        running += instr_of[block_id]

    return ExecutionProfile(
        program_name=program.name,
        block_ids=list(trace.block_ids),
        block_cycles=observer.block_cycles,
        miss_samples=observer.pebs.samples,
        edge_counts=edge_counts,
        block_counts=block_counts,
        cumulative_instructions=cumulative,
        baseline_stats=stats,
    )


def _profile_execution_columnar(
    program: Program,
    trace: BlockTrace,
    machine: Optional[MachineParams],
    sample_period: int,
    data_traffic,
    shard_insns: Optional[int] = None,
) -> ExecutionProfile:
    """Array-kernel profiling: one recorded replay, no observer.

    Produces the identical :class:`ExecutionProfile` to the reference:
    the replay events come from the bit-identical array replay, and
    PEBS period-``N`` sampling is the every-``N``-th-miss slice
    ``misses[N-1::N]`` (the countdown in :class:`PEBSSampler` fires on
    the ``N``-th event first).
    """
    import numpy as np

    from ..sim.columnar import columnar_view
    from ..sim.streaming import stream_replay_events

    machine = machine or MachineParams()
    stats = SimStats()
    events = stream_replay_events(
        program,
        trace,
        machine,
        stats,
        data_traffic=data_traffic,
        shard_insns=shard_insns,
    )

    step = sample_period
    if step <= 0:
        raise ValueError("sample_period must be positive")
    miss_samples = [
        MissSample(index, block, line, cycle)
        for index, block, line, cycle in zip(
            events.miss_trace_index[step - 1 :: step].tolist(),
            events.miss_block_ids[step - 1 :: step].tolist(),
            events.miss_lines[step - 1 :: step].tolist(),
            events.miss_cycles[step - 1 :: step].tolist(),
        )
    ]

    view = columnar_view(program)
    rows = view.trace_rows(trace)
    num_blocks = view.num_blocks
    ids = view.block_ids

    row_counts = np.bincount(rows, minlength=num_blocks)
    block_counts: Counter = Counter(
        {
            int(ids[row]): int(count)
            for row, count in enumerate(row_counts.tolist())
            if count
        }
    )
    if len(rows) > 1:
        encoded = rows[:-1] * num_blocks + rows[1:]
        pairs, pair_counts = np.unique(encoded, return_counts=True)
        src = ids[pairs // num_blocks].tolist()
        dst = ids[pairs % num_blocks].tolist()
        edge_counts: Counter = Counter(
            {
                (s, d): int(count)
                for s, d, count in zip(src, dst, pair_counts.tolist())
            }
        )
    else:
        edge_counts = Counter()

    instr = view.instruction_counts[rows]
    cumulative = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(instr[:-1], out=cumulative[1:])

    return ExecutionProfile(
        program_name=program.name,
        block_ids=list(trace.block_ids),
        block_cycles=events.block_cycles.tolist(),
        miss_samples=miss_samples,
        edge_counts=edge_counts,
        block_counts=block_counts,
        cumulative_instructions=cumulative.tolist(),
        baseline_stats=stats,
    )
