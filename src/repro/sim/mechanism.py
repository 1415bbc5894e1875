"""The demand-fetch loop of the run-time (hardware) prefetchers.

Next-N-line, the Fig. 5 windows, MANA and FDIP inject no instructions;
they share :func:`replay_mechanism` and differ only in their trigger:

* ``miss_targets(line)``: the lines to prefetch after a demand L1I
  miss of *line*, issued when the miss completes (``now + stall``);
* ``block_targets(block_id)``: the lines to prefetch before the block
  is fetched, issued at ``now`` (FDIP's run-ahead path).

A target in the L1I or in flight is skipped.  Any other is filled
with the prefetch insertion policy, queues on the fill port, and is
in flight if it arrives after its issue cycle; a demand fetch of an
in-flight line stalls for the remainder.  With no trigger the loop is
:class:`~repro.sim.cpu.CoreSimulator`'s no-plan replay.  Unlike the
plan replay, late arrivals add no ``late_prefetch_stall_cycles`` and
warmup resets only the L1I's statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from .hierarchy import MemoryHierarchy
from .params import MachineParams
from .stats import SimStats
from .trace import BlockTrace, Program

#: a trigger: a block id or a missed line in, the lines to prefetch out
Targets = Callable[[int], Iterable[int]]


def replay_mechanism(
    program: Program,
    trace: BlockTrace,
    machine: Optional[MachineParams] = None,
    data_traffic=None,
    warmup: int = 0,
    block_targets: Optional[Targets] = None,
    miss_targets: Optional[Targets] = None,
) -> SimStats:
    """Replay *trace* with the run-time prefetcher given by its
    triggers; ``warmup`` block executions are excluded from the
    statistics."""
    from .array_replay import _decode_data_stream

    machine = machine or MachineParams()
    hierarchy = MemoryHierarchy(machine)
    stats = SimStats()
    cpi = 1.0 / machine.base_ipc
    lines_of = {block.block_id: block.lines for block in program}
    instr_counts = {block.block_id: block.instruction_count for block in program}
    inflight: Dict[int, float] = {}
    # The data stream decodes up front, memoized and shared with the
    # columnar kernel; it advances the model as per-block calls would.
    data_lines, data_counts = _decode_data_stream(
        data_traffic, [instr_counts[block_id] for block_id in trace]
    )
    data_access = hierarchy.data_access
    data_at = 0
    l1i = hierarchy.l1i
    l1i_access = l1i.access
    fill_request = hierarchy.fill_port.request

    def issue(targets: Iterable[int], at: float) -> None:
        for target in targets:
            if l1i.contains(target) or target in inflight:
                continue
            level = hierarchy.residence_level(target)
            hierarchy.prefetch_fill(target)
            stats.prefetches_issued += 1
            arrival = fill_request(at, level)
            if arrival > at:
                inflight[target] = arrival

    now = 0.0
    program_instructions = 0
    for index, block_id in enumerate(trace):
        if index == warmup and warmup > 0:
            stats.clear()
            l1i.stats.reset()
            program_instructions = 0
        if block_targets is not None:
            issue(block_targets(block_id), now)
        lines = lines_of[block_id]
        stats.l1i_accesses += len(lines)
        stall = 0.0
        for line in lines:
            arrival = inflight.pop(line, None)
            if arrival is not None and arrival > now + stall:
                stall += arrival - (now + stall)
                stats.late_prefetch_hits += 1
                l1i_access(line)
                continue
            if l1i_access(line):
                continue
            level = hierarchy.fill_after_l1_miss(line)
            stats.l1i_misses += 1
            stats.record_miss_level(level)
            stall = fill_request(now + stall, level) - now
            if miss_targets is not None:
                issue(miss_targets(line), now + stall)
        if stall:
            stats.frontend_stall_cycles += stall
            now += stall
        count = instr_counts[block_id]
        program_instructions += count
        now += count * cpi
        if data_traffic is not None:
            end = data_at + data_counts[index]
            for data_line in data_lines[data_at:end]:
                data_access(data_line)
            data_at = end

    stats.program_instructions = program_instructions
    stats.compute_cycles = program_instructions * cpi
    stats.prefetches_useful = l1i.stats.prefetch_hits
    return stats
