"""Differential tests for the shared run-time mechanism loop.

:func:`repro.sim.mechanism.replay_mechanism` is the one demand-fetch
loop behind next-N-line, the Fig. 5 windows, MANA and FDIP.  Its
contract is exact:

* with no trigger it is the no-plan reference replay of
  :class:`~repro.sim.cpu.CoreSimulator` (every statistic ``==``);
* next-N-line is the contiguous window of N lines;
* zero lines ahead issues nothing.

Inputs come from the seeded factories in ``tests/conftest.py``; the
seed alone reproduces any failure.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.baselines.contiguous import WindowPrefetcher
from repro.baselines.protocol import ProfileView, ReplayContext, get_prefetcher
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import make_data_traffic
from repro.sim.mechanism import replay_mechanism

from ..conftest import adversarial_workloads, make_random_program, make_random_trace

#: (warmup, data-traffic seed): cold and warmed, with and without traffic
RUN_SHAPES = ((0, None), (0, 999), (150, None), (150, 999))


def _traffic(seed):
    if seed is None:
        return None
    return make_data_traffic(
        rate_per_instruction=0.05, working_set_kib=64, seed=seed
    )


def _reference(program, trace, warmup=0, traffic_seed=None):
    """The no-plan replay on the reference loop."""
    with kernel.reference_path():
        core = CoreSimulator(program, data_traffic=_traffic(traffic_seed))
        return core.run(trace, warmup=warmup)


def _bare(program, trace, warmup=0, traffic_seed=None):
    """The mechanism loop with no trigger."""
    return replay_mechanism(
        program, trace, None, _traffic(traffic_seed), warmup
    )


def _random_case(seed, n_blocks):
    rng = random.Random(seed)
    program = make_random_program(rng, n_blocks=n_blocks)
    trace = make_random_trace(rng, n_blocks, length=900, fanout=3)
    return program, trace


class TestNoTrigger:
    """With no trigger the loop is the no-plan replay."""

    @pytest.mark.parametrize("warmup,traffic_seed", RUN_SHAPES)
    @pytest.mark.parametrize("seed,n_blocks", [(1, 48), (2, 400), (3, 1200)])
    def test_random_programs(self, seed, n_blocks, warmup, traffic_seed):
        program, trace = _random_case(seed, n_blocks)
        expected = _reference(program, trace, warmup, traffic_seed)
        assert expected.l1i_misses > 0
        assert _bare(program, trace, warmup, traffic_seed) == expected


@settings(max_examples=8, deadline=None)
@given(
    case=adversarial_workloads(),
    warmup=st.sampled_from((0, 100)),
    traffic_seed=st.sampled_from((None, 4242)),
)
def test_adversarial_no_trigger(case, warmup, traffic_seed):
    _name, app, trace = case
    assert _bare(app.program, trace, warmup, traffic_seed) == _reference(
        app.program, trace, warmup, traffic_seed
    )


def _nextline(program, trace, lines_ahead, warmup, traffic_seed):
    prefetcher = get_prefetcher("nextline", lines_ahead=lines_ahead)
    stats = prefetcher.simulate(
        ProfileView(program),
        trace,
        ReplayContext(data_traffic=_traffic(traffic_seed), warmup=warmup),
    )
    assert prefetcher.last_replay_backend == "mechanism"
    return stats


class TestNextLineIsTheContiguousWindow:
    @pytest.mark.parametrize("warmup,traffic_seed", RUN_SHAPES)
    @pytest.mark.parametrize("lines_ahead", (1, 2, 4, 8))
    def test_window_of_n(self, lines_ahead, warmup, traffic_seed):
        program, trace = _random_case(7, 400)
        window = WindowPrefetcher(lines_ahead, contiguous=True).simulate(
            ProfileView(program),
            trace,
            ReplayContext(data_traffic=_traffic(traffic_seed), warmup=warmup),
        )
        assert window.prefetches_issued > 0
        assert _nextline(
            program, trace, lines_ahead, warmup, traffic_seed
        ) == window

    @pytest.mark.parametrize("warmup,traffic_seed", RUN_SHAPES)
    def test_zero_lines_ahead_issues_nothing(self, warmup, traffic_seed):
        program, trace = _random_case(8, 400)
        stats = _nextline(program, trace, 0, warmup, traffic_seed)
        assert stats.prefetches_issued == 0
        assert stats.prefetches_useful == 0
        assert stats == _reference(program, trace, warmup, traffic_seed)
