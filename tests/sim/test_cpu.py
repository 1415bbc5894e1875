"""Core-simulator (replay loop) tests."""

import pytest

from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.sim.cpu import CoreSimulator, TraceObserver, simulate
from repro.sim.params import MachineParams
from repro.sim.trace import BlockTrace

from ..conftest import make_program


class TestBasicReplay:
    def test_cycle_accounting_no_misses_is_compute_only(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3])
        stats = simulate(tiny_program, trace).ideal_bound()
        instructions = trace.instruction_count(tiny_program)
        assert stats.cycles == pytest.approx(instructions / 2.0)
        assert stats.l1i_misses == 0

    def test_cold_misses_counted(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3])
        stats = simulate(tiny_program, trace)
        assert stats.l1i_misses == 4
        assert stats.miss_level_counts == {"memory": 4}

    def test_second_pass_hits(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3, 0, 1, 2, 3])
        stats = simulate(tiny_program, trace)
        assert stats.l1i_misses == 4
        assert stats.l1i_accesses == 8

    def test_stall_cycles_match_penalties(self, tiny_program):
        trace = BlockTrace([0])
        stats = simulate(tiny_program, trace)
        assert stats.frontend_stall_cycles == 260.0

    def test_ideal_faster_than_real(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3] * 4)
        real = simulate(tiny_program, trace)
        ideal = real.ideal_bound()
        assert ideal.cycles < real.cycles


class TestWarmup:
    def test_warmup_excludes_cold_misses(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3] * 5)
        stats = simulate(tiny_program, trace, warmup=4)
        assert stats.l1i_misses == 0
        assert stats.program_instructions == 16 * 16

    def test_warmup_zero_is_full_trace(self, tiny_program):
        trace = BlockTrace([0, 1])
        full = simulate(tiny_program, trace, warmup=0)
        assert full.program_instructions == 32

    def test_warmup_keeps_cache_state(self):
        program = make_program([64] * 8)
        trace = BlockTrace(list(range(8)) + [0, 1, 2, 3])
        stats = simulate(program, trace, warmup=8)
        # all lines were warmed -> steady-state region has no misses
        assert stats.l1i_misses == 0


class TestObserver:
    def test_block_and_miss_events(self, tiny_program):
        events = []

        class Recorder(TraceObserver):
            def on_block(self, index, block_id, cycle):
                events.append(("block", index, block_id))

            def on_miss(self, index, block_id, line, cycle):
                events.append(("miss", index, block_id))

        trace = BlockTrace([0, 1, 0])
        simulate(tiny_program, trace, observer=Recorder())
        blocks = [e for e in events if e[0] == "block"]
        misses = [e for e in events if e[0] == "miss"]
        assert len(blocks) == 3
        assert len(misses) == 2  # 0 and 1 cold-miss; second 0 hits

    def test_observer_cycles_monotonic(self, tiny_program):
        cycles = []

        class Recorder(TraceObserver):
            def on_block(self, index, block_id, cycle):
                cycles.append(cycle)

        simulate(tiny_program, BlockTrace([0, 1, 2, 3]), observer=Recorder())
        assert cycles == sorted(cycles)


class TestPrefetchedReplay:
    def test_timely_prefetch_removes_miss(self):
        # Block 0 executes, then a long gap, then block 5 misses.
        # Prefetching block 5's line at block 0 should hide it.
        program = make_program([64] * 6)
        filler = [0, 1, 2, 3] * 30
        trace = BlockTrace(filler + [5] + filler + [5])
        target_line = program.block(5).lines[0]
        plan = PrefetchPlan()
        plan.add(PrefetchInstr(site_block=0, base_line=target_line))
        base = simulate(program, trace)
        fetched = simulate(program, trace, plan=plan)
        assert fetched.l1i_misses < base.l1i_misses
        assert fetched.prefetches_issued >= 1
        assert fetched.cycles < base.cycles

    def test_prefetch_instructions_charged(self, tiny_program):
        plan = PrefetchPlan()
        plan.add(PrefetchInstr(site_block=0, base_line=9999))
        trace = BlockTrace([0, 1] * 10)
        stats = simulate(tiny_program, trace, plan=plan)
        assert stats.prefetch_instructions_executed == 10
        # charged at issue width, not base IPC
        machine = MachineParams()
        expected = (
            stats.program_instructions / machine.base_ipc
            + 10 / machine.issue_width
        )
        assert stats.compute_cycles == pytest.approx(expected)

    def test_empty_plan_equals_no_plan(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3] * 3)
        with_plan = simulate(tiny_program, trace, plan=PrefetchPlan())
        without = simulate(tiny_program, trace)
        assert with_plan.cycles == without.cycles


class TestLatePrefetch:
    def test_late_prefetch_pays_only_remaining_latency(self):
        from repro.sim.frontend import FetchEngine
        from repro.sim.hierarchy import MemoryHierarchy
        from repro.sim.prefetch_engine import PrefetchEngine
        from repro.sim.stats import SimStats

        program = make_program([64] * 4)
        line3 = program.block(3).lines[0]
        plan = PrefetchPlan()
        plan.add(PrefetchInstr(site_block=0, base_line=line3))
        hierarchy = MemoryHierarchy()
        stats = SimStats()
        engine = PrefetchEngine(hierarchy, plan, stats)
        fetch = FetchEngine(program, hierarchy, stats, engine)

        engine.execute_site(0, now=0.0)  # arrival at cycle 260
        stall = fetch.fetch_block(3, now=100.0)  # demanded mid-flight
        assert stats.late_prefetch_hits == 1
        assert stall == pytest.approx(160.0)  # only the remainder
        # a second fetch is a clean hit
        assert fetch.fetch_block(3, now=300.0) == 0.0
