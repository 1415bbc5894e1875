"""Trace-driven core simulator (our ZSim stand-in).

:class:`CoreSimulator` replays a :class:`~repro.sim.trace.BlockTrace`
over the Table I memory hierarchy.  Each retired instruction takes
``1 / base_ipc`` cycles; every frontend stall adds its penalty on top,
matching the paper's framing that I-cache misses "show up as glaring
stalls in the critical path of execution".

The simulator optionally executes a :class:`PrefetchPlan` through the
:class:`PrefetchEngine` — this is how I-SPY, AsmDB and the limit
prefetchers are all evaluated on identical replay machinery.  The
paper's ideal I-cache (every fetch hits) needs no replay of its own: it
is :meth:`~repro.sim.stats.SimStats.ideal_bound` of a no-prefetch run.

A :class:`TraceObserver` hook exposes per-block and per-miss events;
the LBR/PEBS profiler is implemented as an observer so profiling and
evaluation share one timing model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .frontend import FetchEngine
from .hierarchy import MemoryHierarchy
from .params import MachineParams
from .prefetch_engine import PrefetchEngine
from .stats import SimStats
from .trace import BlockTrace, Program, ShardedTrace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.instructions import PrefetchPlan
    from .datatraffic import DataTrafficModel


def _instruction_counts(program: Program) -> Dict[int, int]:
    """Block id -> instruction count for the reference loop, built once
    per (immutable) program and cached on it, like its bit-position
    tables."""
    counts = getattr(program, "_instr_counts", None)
    if counts is None:
        counts = {block.block_id: block.instruction_count for block in program}
        setattr(program, "_instr_counts", counts)
    return counts


class TraceObserver:
    """Event hooks invoked during replay.  Base class is a no-op."""

    def on_block(self, index: int, block_id: int, cycle: float) -> None:
        """A basic block began fetching at *cycle*."""

    def on_miss(self, index: int, block_id: int, line: int, cycle: float) -> None:
        """Fetching *block_id* missed the L1I on *line* at *cycle*."""


class CoreSimulator:
    """One core replaying one program's trace."""

    def __init__(
        self,
        program: Program,
        machine: Optional[MachineParams] = None,
        plan: Optional["PrefetchPlan"] = None,
        hash_bits: int = 16,
        lbr_depth: int = 32,
        track_exact_context: bool = False,
        data_traffic: Optional["DataTrafficModel"] = None,
        prefetch_insertion_fraction: float = 0.5,
    ):
        self.program = program
        self.machine = machine or MachineParams()
        self.plan = plan
        self.hash_bits = hash_bits
        self.lbr_depth = lbr_depth
        self.track_exact_context = track_exact_context
        self.data_traffic = data_traffic

        self.hierarchy = MemoryHierarchy(
            self.machine,
            prefetch_insertion_fraction=prefetch_insertion_fraction,
        )
        self.stats = SimStats()
        #: which replay implementation the last run() used
        self.last_replay_backend = "reference"
        #: why the last run() fell back to the reference loop, when it
        #: did: "observer", "kernel-disabled", "state-not-pristine" or
        #: "engine-state"; None when a columnar path served the run
        self.last_fallback_reason: Optional[str] = None
        self.engine: Optional[PrefetchEngine] = None

        # Only a plan with instructions builds a prefetch engine; None
        # and an empty plan replay as no-prefetch runs.
        if plan is not None and len(plan) > 0:
            # Imported here rather than at module level: `repro.sim` is
            # the substrate `repro.core`'s pipeline builds on, so the
            # module-level dependency points core -> sim only.
            from ..core.bloom import LBRRuntimeHash
            from ..core.hashing import bit_position_table

            tracker = None
            if any(instr.is_conditional for instr in plan):
                # The position table is a pure function of the
                # (immutable) program addresses and the hash width;
                # cache it on the program so repeated simulator
                # constructions — every plan evaluated against the same
                # app — hash each block address once, not once per run.
                cache = getattr(program, "_bit_position_tables", None)
                if cache is None:
                    cache = {}
                    setattr(program, "_bit_position_tables", cache)
                table = cache.get(hash_bits)
                if table is None:
                    addresses = {b.block_id: b.address for b in program}
                    table = bit_position_table(addresses, hash_bits)
                    cache[hash_bits] = table
                tracker = LBRRuntimeHash(
                    table,
                    hash_bits=hash_bits,
                    depth=lbr_depth,
                )
            self.engine = PrefetchEngine(
                self.hierarchy,
                plan,
                self.stats,
                tracker=tracker,
                track_exact_context=track_exact_context,
            )

    def _hierarchy_pristine(self) -> bool:
        """True when no replay or external access has touched state."""
        return self.hierarchy.is_pristine() and self.stats == SimStats()

    def run(
        self,
        trace: BlockTrace,
        observer: Optional[TraceObserver] = None,
        warmup: int = 0,
        shard_insns: Optional[int] = None,
        checkpointer=None,
    ) -> SimStats:
        """Replay *trace* and return the populated statistics.

        ``warmup`` block executions are replayed first with full cache
        effects but excluded from the reported statistics — the
        steady-state measurement methodology of Section V ("We record
        up to 100 million instructions executed in steady-state").

        With ``shard_insns`` set (or a :class:`~repro.sim.trace.
        ShardedTrace` passed as *trace*) the replay streams the trace
        shard by shard — bounded memory, bit-identical statistics —
        and an optional *checkpointer* (see :mod:`repro.sim.streaming`)
        records per-shard state so a killed run can resume.
        """
        from .streaming import run_plan_batch, run_sharded

        if (
            shard_insns is not None
            or checkpointer is not None
            or isinstance(trace, ShardedTrace)
        ):
            return run_sharded(
                self,
                trace,
                observer=observer,
                warmup=warmup,
                shard_insns=shard_insns,
                checkpointer=checkpointer,
            )
        # A whole-trace replay is the driver's one-shard case.
        run_plan_batch([self], trace, warmup, observer=observer)
        return self.stats

    def _reference_stream(
        self,
        fetch: FetchEngine,
        block_ids,
        base_index: int,
        warmup_boundary: int,
        now: float,
        program_instructions: int,
    ):
        """Replay a contiguous run of *block_ids* through the reference
        composition, starting at global trace position *base_index*.

        Returns the updated ``(now, program_instructions)`` pair so a
        sharded caller (:mod:`repro.sim.streaming`) can thread them
        through shard after shard; the whole-trace replay is the
        single-call case.  *fetch*'s observer, if any, receives global
        trace indices.
        """
        stats = self.stats
        hierarchy = self.hierarchy
        engine = self.engine
        observer = fetch.observer
        data_traffic = self.data_traffic
        cpi = 1.0 / self.machine.base_ipc
        prefetch_cpi = 1.0 / self.machine.issue_width
        instr_counts = _instruction_counts(self.program)

        for index, block_id in enumerate(block_ids, base_index):
            if index == warmup_boundary:
                # Steady state begins: drop the warmup counters but
                # keep every piece of microarchitectural state.
                stats.clear()
                hierarchy.l1i.stats.reset()
                hierarchy.l2.stats.reset()
                hierarchy.l3.stats.reset()
                program_instructions = 0
            if observer is not None:
                observer.on_block(index, block_id, now)
            if engine is not None:
                now += engine.execute_site(block_id, now) * prefetch_cpi
            stall = fetch.fetch_block(block_id, now, index)
            stats.frontend_stall_cycles += stall
            now += stall
            count = instr_counts[block_id]
            program_instructions += count
            now += count * cpi
            if engine is not None:
                engine.retire_block(block_id)
            if data_traffic is not None:
                data_traffic.advance(count, hierarchy)
        return now, program_instructions

    def _reference_finish(self, program_instructions: int) -> SimStats:
        stats = self.stats
        cpi = 1.0 / self.machine.base_ipc
        prefetch_cpi = 1.0 / self.machine.issue_width
        stats.program_instructions = program_instructions
        stats.compute_cycles = (
            program_instructions * cpi
            + stats.prefetch_instructions_executed * prefetch_cpi
        )
        # Late-prefetch hits are already counted by the L1I's demand
        # access bookkeeping (the line was filled at issue time).
        stats.prefetches_useful = self.hierarchy.l1i.stats.prefetch_hits
        return stats


def simulate(
    program: Program,
    trace: BlockTrace,
    plan: Optional["PrefetchPlan"] = None,
    machine: Optional[MachineParams] = None,
    hash_bits: int = 16,
    lbr_depth: int = 32,
    track_exact_context: bool = False,
    observer: Optional[TraceObserver] = None,
    data_traffic: Optional["DataTrafficModel"] = None,
    warmup: int = 0,
    prefetch_insertion_fraction: float = 0.5,
    shard_insns: Optional[int] = None,
) -> SimStats:
    """One-shot convenience wrapper around :class:`CoreSimulator`."""
    core = CoreSimulator(
        program,
        machine=machine,
        plan=plan,
        hash_bits=hash_bits,
        lbr_depth=lbr_depth,
        track_exact_context=track_exact_context,
        data_traffic=data_traffic,
        prefetch_insertion_fraction=prefetch_insertion_fraction,
    )
    return core.run(
        trace,
        observer=observer,
        warmup=warmup,
        shard_insns=shard_insns,
    )
