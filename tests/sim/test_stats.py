"""SimStats derived-metric tests."""

import pytest

from repro.sim.stats import SimStats


def populated_stats():
    stats = SimStats()
    stats.compute_cycles = 500.0
    stats.frontend_stall_cycles = 500.0
    stats.program_instructions = 1000
    stats.prefetch_instructions_executed = 100
    stats.l1i_accesses = 400
    stats.l1i_misses = 40
    stats.prefetches_issued = 50
    stats.prefetches_useful = 40
    stats.prefetches_suppressed = 10
    stats.record_miss_level("l2")
    stats.record_miss_level("l2")
    stats.record_miss_level("memory")
    return stats


class TestDerivedMetrics:
    def test_cycles(self):
        assert populated_stats().cycles == 1000.0

    def test_total_instructions(self):
        assert populated_stats().total_instructions == 1100

    def test_ipc(self):
        assert populated_stats().ipc == 1.1

    def test_mpki_normalized_to_program_instructions(self):
        stats = populated_stats()
        assert stats.l1i_mpki == 40.0
        # adding prefetch instructions must not deflate MPKI
        stats.prefetch_instructions_executed += 10_000
        assert stats.l1i_mpki == 40.0

    def test_frontend_bound(self):
        assert populated_stats().frontend_bound_fraction == 0.5

    def test_prefetch_accuracy(self):
        assert populated_stats().prefetch_accuracy == 0.8

    def test_dynamic_overhead(self):
        assert populated_stats().dynamic_overhead == 0.1

    def test_miss_level_counts(self):
        stats = populated_stats()
        assert stats.miss_level_counts == {"l2": 2, "memory": 1}


class TestEmptyStats:
    def test_zero_safe(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.l1i_mpki == 0.0
        assert stats.frontend_bound_fraction == 0.0
        assert stats.prefetch_accuracy == 0.0
        assert stats.dynamic_overhead == 0.0


class TestClear:
    def test_clear_zeroes_everything(self):
        stats = populated_stats()
        stats.clear()
        assert stats.cycles == 0.0
        assert stats.total_instructions == 0
        assert stats.l1i_misses == 0
        assert stats.miss_level_counts == {}
        assert stats.prefetches_issued == 0


class TestAsDict:
    def test_keys_present(self):
        summary = populated_stats().as_dict()
        for key in ("cycles", "ipc", "l1i_mpki", "frontend_bound",
                    "prefetch_accuracy", "dynamic_overhead"):
            assert key in summary


class TestIdealBound:
    def test_keeps_only_the_all_hits_counters(self):
        stats = populated_stats()
        stats.prefetch_instructions_executed = 0
        bound = stats.ideal_bound()
        assert bound == SimStats(
            compute_cycles=500.0, program_instructions=1000, l1i_accesses=400
        )
        assert bound.cycles == 500.0 and bound.l1i_misses == 0

    def test_refuses_stats_that_executed_prefetches(self):
        with pytest.raises(ValueError):
            populated_stats().ideal_bound()
