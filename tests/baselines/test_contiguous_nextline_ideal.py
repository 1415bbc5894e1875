"""Contiguous/Non-contiguous-8, next-line, and ideal-cache tests."""

import pytest

from repro.baselines.contiguous import build_window_plan
from repro.baselines.protocol import ProfileView, ReplayContext, get_prefetcher
from repro.core.injection import frequent_miss_lines
from repro.core.config import DEFAULT_CONFIG
from repro.sim.cpu import simulate
from repro.sim.trace import BlockTrace

from ..conftest import make_program


class TestWindowPlans:
    def test_contiguous_has_full_vectors(self, small_app, small_profile):
        plan = build_window_plan(small_app.program, small_profile, window=8)
        assert len(plan) > 0
        assert all(i.bit_vector == 0xFF for i in plan)
        assert all(len(i.target_lines()) == 9 for i in plan)

    def test_noncontiguous_targets_only_miss_lines(self, small_app, small_profile):
        plan = build_window_plan(
            small_app.program, small_profile, window=8, contiguous=False
        )
        miss_lines = {
            line for line, _ in frequent_miss_lines(small_profile, DEFAULT_CONFIG)
        }
        for instr in plan:
            for line in instr.target_lines():
                assert line in miss_lines

    def test_noncontiguous_prefetches_fewer_lines(self, small_app, small_profile):
        contiguous = build_window_plan(small_app.program, small_profile)
        noncontiguous = build_window_plan(
            small_app.program, small_profile, contiguous=False
        )
        lines_c = sum(len(i.target_lines()) for i in contiguous)
        lines_n = sum(len(i.target_lines()) for i in noncontiguous)
        assert lines_n < lines_c

    def test_rejects_bad_window(self, small_app, small_profile):
        with pytest.raises(ValueError):
            build_window_plan(small_app.program, small_profile, window=0)

    def test_window_members_not_reemitted(self, small_app, small_profile):
        plan = build_window_plan(
            small_app.program, small_profile, contiguous=False
        )
        bases = [i.base_line for i in plan]
        assert len(bases) == len(set(bases))


def simulate_nextline(program, trace, lines_ahead=1, warmup=0):
    """The registry's next-N-line member, replayed on *trace*."""
    prefetcher = get_prefetcher("nextline", lines_ahead=lines_ahead)
    return prefetcher.simulate(
        ProfileView(program), trace, ReplayContext(warmup=warmup)
    )


class TestNextLine:
    def test_reduces_misses_on_sequential_code(self):
        # 32 consecutive one-line blocks swept repeatedly: a next-line
        # prefetcher should hide almost everything after warmup
        program = make_program([64] * 32)
        trace = BlockTrace(list(range(32)) * 20)
        base = simulate(program, trace, warmup=32)
        nextline = simulate_nextline(program, trace, lines_ahead=2, warmup=32)
        assert nextline.l1i_misses <= base.l1i_misses
        assert nextline.cycles <= base.cycles

    def test_zero_lines_ahead_equals_baseline(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3] * 3)
        base = simulate(tiny_program, trace)
        none = simulate_nextline(tiny_program, trace, lines_ahead=0)
        assert none.cycles == base.cycles
        assert none.prefetches_issued == 0

    def test_rejects_negative(self, tiny_program):
        with pytest.raises(ValueError):
            simulate_nextline(tiny_program, BlockTrace([0]), lines_ahead=-1)

    def test_issues_prefetches(self, tiny_program):
        trace = BlockTrace([0, 1, 2, 3])
        stats = simulate_nextline(tiny_program, trace, lines_ahead=1)
        assert stats.prefetches_issued > 0


def ideal_replay(program, trace):
    """The registry's ideal member, replayed on *trace*."""
    return get_prefetcher("ideal").simulate(ProfileView(program), trace)


class TestIdeal:
    def test_no_misses(self, small_app, small_eval_trace):
        stats = ideal_replay(small_app.program, small_eval_trace)
        assert stats.l1i_misses == 0
        assert stats.frontend_stall_cycles == 0.0

    def test_fastest_possible(self, small_app, small_eval_trace):
        ideal = ideal_replay(small_app.program, small_eval_trace)
        real = simulate(
            small_app.program,
            small_eval_trace,
            data_traffic=small_app.data_traffic(seed=1),
        )
        assert ideal.cycles < real.cycles

    def test_cycles_equal_compute(self, small_app, small_eval_trace):
        stats = ideal_replay(small_app.program, small_eval_trace)
        assert stats.cycles == pytest.approx(stats.compute_cycles)
