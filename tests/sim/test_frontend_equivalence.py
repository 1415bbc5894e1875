"""Observer-variant equivalence and frontend behaviors.

An observed replay (the reference profiler's view) and a plain one run
the same `FetchEngine.fetch_block` loop, the observed one with an
observer attached.  Timing and statistics must be bit-identical
between them, or profiles would describe a different machine than the
one being optimized.
"""

from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.sim.cpu import TraceObserver, simulate
from repro.sim.trace import BlockTrace
from repro.workloads.apps import build_app

from ..conftest import make_program


class _CountingObserver(TraceObserver):
    def __init__(self):
        self.blocks = 0
        self.misses = 0
        self.missed = []

    def on_block(self, index, block_id, cycle):
        self.blocks += 1

    def on_miss(self, index, block_id, line, cycle):
        self.misses += 1
        self.missed.append((index, block_id, line))


def compare(program, trace, plan=None):
    plain = simulate(program, trace, plan=plan)
    observer = _CountingObserver()
    observed = simulate(program, trace, plan=plan, observer=observer)
    return plain, observed, observer


class TestObserverEquivalence:
    def test_identical_timing_without_plan(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3] * 5)
        plain, observed, observer = compare(tiny_program, trace)
        assert plain.cycles == observed.cycles
        assert plain.l1i_misses == observed.l1i_misses
        assert observer.blocks == len(trace)
        assert observer.misses == plain.l1i_misses

    def test_identical_timing_with_plan(self):
        program = make_program([64] * 10)
        trace = BlockTrace(list(range(10)) * 4)
        plan = PrefetchPlan()
        plan.add(
            PrefetchInstr(
                site_block=0, base_line=program.block(5).lines[0]
            )
        )
        plain, observed, _ = compare(program, trace, plan)
        assert plain.cycles == observed.cycles
        assert plain.prefetches_issued == observed.prefetches_issued
        assert (
            plain.frontend_stall_cycles == observed.frontend_stall_cycles
        )

    def test_identical_on_real_app(self, small_app):
        trace = small_app.trace(5000)
        plain, observed, _ = compare(small_app.program, trace)
        assert plain == observed

    def test_identical_with_a_late_prefetch(self):
        """A prefetch still in flight at the demand fetch: both replays
        pay the same remainder, and the late hit is no miss."""
        # One 64-byte line per block; blocks 3 + 64j share line 3's
        # L1I set, so the eight after block 3 evict it.  Block 0 stays
        # resident and re-issues the prefetch from L2, and block 3
        # demands it before the fill lands.
        program = make_program([64] * 600)
        line = program.block(3).lines[0]
        plan = PrefetchPlan()
        plan.add(PrefetchInstr(site_block=0, base_line=line))
        evictors = [3 + 64 * j for j in range(1, 9)]
        trace = BlockTrace([0, 3] + evictors + [0, 3])
        plain, observed, observer = compare(program, trace, plan)
        assert plain == observed
        assert plain.late_prefetch_hits == 1
        assert plain.late_prefetch_stall_cycles > 0
        assert observer.misses == plain.l1i_misses
        assert all(block != 3 for _, block, _ in observer.missed)
        assert all(missed != line for _, _, missed in observer.missed)


class TestDeterminismAcrossRuns:
    def test_full_pipeline_bit_identical(self):
        app = build_app("finagle-http", scale=0.2)
        results = []
        for _ in range(2):
            trace = app.trace(6000)
            stats = simulate(
                app.program, trace, data_traffic=app.data_traffic()
            )
            results.append((stats.cycles, stats.l1i_misses))
        assert results[0] == results[1]

    def test_different_data_seed_changes_l2_contents(self):
        from repro.sim.cpu import CoreSimulator

        app = build_app("finagle-http", scale=0.2)
        trace = app.trace(6000)
        residents = []
        for seed in (1, 2):
            core = CoreSimulator(
                app.program, data_traffic=app.data_traffic(seed=seed)
            )
            core.run(trace)
            residents.append(frozenset(core.hierarchy.l2.resident_lines()))
        assert residents[0] != residents[1]
