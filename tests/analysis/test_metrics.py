"""Metric-definition tests."""

import pytest

from repro.analysis import metrics
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.sim.stats import SimStats


def stats_with(cycles, mpki_misses=0, instructions=1000):
    stats = SimStats()
    stats.compute_cycles = cycles
    stats.program_instructions = instructions
    stats.l1i_misses = mpki_misses
    return stats


class TestSpeedup:
    def test_faster_candidate(self):
        assert metrics.speedup(stats_with(200), stats_with(100)) == 2.0

    def test_equal(self):
        assert metrics.speedup(stats_with(100), stats_with(100)) == 1.0

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            metrics.speedup(stats_with(100), stats_with(0))


class TestPercentOfIdeal:
    def test_halfway(self):
        base = stats_with(200)
        ideal = stats_with(100)      # ideal speedup 2.0
        candidate = stats_with(400 / 3)  # speedup 1.5
        value = metrics.percent_of_ideal(base, candidate, ideal)
        assert value == pytest.approx(0.5)

    def test_full(self):
        base, ideal = stats_with(200), stats_with(100)
        assert metrics.percent_of_ideal(base, ideal, ideal) == pytest.approx(1.0)

    def test_no_headroom(self):
        base = stats_with(100)
        assert metrics.percent_of_ideal(base, base, base) == 1.0


class TestMpkiReduction:
    def test_full_elimination(self):
        assert metrics.mpki_reduction(
            stats_with(1, mpki_misses=50), stats_with(1, mpki_misses=0)
        ) == 1.0

    def test_half(self):
        assert metrics.mpki_reduction(
            stats_with(1, mpki_misses=50), stats_with(1, mpki_misses=25)
        ) == pytest.approx(0.5)

    def test_zero_baseline(self):
        assert metrics.mpki_reduction(stats_with(1), stats_with(1)) == 0.0


class TestFootprints:
    def test_static_increase(self):
        plan = PrefetchPlan()
        plan.add(PrefetchInstr(site_block=1, base_line=10))  # 7 bytes
        assert plan.static_increase(700) == pytest.approx(0.01)

    def test_dynamic_increase(self):
        stats = stats_with(1)
        stats.prefetch_instructions_executed = 100
        assert stats.dynamic_overhead == pytest.approx(0.1)


class TestAggregation:
    def test_relative_improvement(self):
        assert metrics.relative_improvement(0.12, 0.10) == pytest.approx(0.2)
        assert metrics.relative_improvement(0.1, 0.0) == 0.0

    def test_arithmetic_mean(self):
        assert metrics.arithmetic_mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            metrics.arithmetic_mean([])
