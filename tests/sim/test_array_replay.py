"""Differential tests: columnar array replay vs the reference loop.

The array-replay fast path must be *bit-identical* to
:class:`CoreSimulator`'s reference loop — every statistic, every float,
and the final microarchitectural state.  Equality here is always
``==``, never approximate.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import kernel
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import DataTrafficModel
from repro.sim.params import MachineParams
from repro.sim.stats import SimStats
from repro.sim.trace import BlockTrace
from repro.workloads.apps import build_app

from ..conftest import hierarchy_state as _hierarchy_state, make_program

APPS = ("wordpress", "drupal", "finagle-http")


def _run(program, trace, backend, data_traffic=None, warmup=0):
    with backend():
        core = CoreSimulator(program, data_traffic=data_traffic)
        stats = core.run(trace, warmup=warmup)
    return core, stats


def _assert_identical(program, trace, data_traffic=None, warmup=0):
    ref_core, ref_stats = _run(
        program, trace, kernel.reference_path,
        data_traffic=data_traffic() if data_traffic else None,
        warmup=warmup,
    )
    col_core, col_stats = _run(
        program, trace, kernel.force_numpy_kernel,
        data_traffic=data_traffic() if data_traffic else None,
        warmup=warmup,
    )
    assert ref_core.last_replay_backend == "reference"
    assert col_core.last_replay_backend == "columnar"
    assert col_stats == ref_stats
    assert _hierarchy_state(col_core) == _hierarchy_state(ref_core)
    assert col_core.hierarchy.l1i.stats == ref_core.hierarchy.l1i.stats
    assert col_core.hierarchy.l2.stats == ref_core.hierarchy.l2.stats
    assert col_core.hierarchy.l3.stats == ref_core.hierarchy.l3.stats
    return ref_stats


class TestTinyTraces:
    def test_cold_and_repeat(self):
        program = make_program([64, 64, 64, 64])
        _assert_identical(program, BlockTrace([0, 1, 2, 3, 0, 1, 2, 3]))

    def test_multi_line_blocks(self):
        program = make_program([64, 200, 64, 640, 130])
        _assert_identical(program, BlockTrace([0, 1, 2, 3, 4, 1, 3, 3, 0]))

    def test_back_to_back_same_block(self):
        program = make_program([64, 64])
        _assert_identical(program, BlockTrace([0, 0, 0, 1, 1, 0]))

    def test_capacity_evictions(self):
        # Far more lines than the L1I holds: exercises eviction + L2/L3.
        program = make_program([640] * 80)
        trace = BlockTrace(
            [i % 80 for i in range(400)] + list(range(0, 80, 3))
        )
        _assert_identical(program, trace)

    def test_warmup_boundary(self):
        program = make_program([64] * 8)
        trace = BlockTrace(list(range(8)) * 4)
        _assert_identical(program, trace, warmup=8)
        _assert_identical(program, trace, warmup=len(trace.block_ids) - 1)

    def test_ideal_mode(self):
        """Both kernels' no-prefetch runs project onto the same ideal
        bound: every line fetched, compute cycles only."""
        program = make_program([64, 320, 64])
        trace = BlockTrace([0, 1, 2, 1, 0])
        bound = _assert_identical(program, trace).ideal_bound()
        instructions = trace.instruction_count(program)
        assert bound == SimStats(
            compute_cycles=instructions * (1.0 / MachineParams().base_ipc),
            program_instructions=instructions,
            l1i_accesses=sum(len(program.lines_of(b)) for b in trace),
        )

    def test_single_block_trace(self):
        program = make_program([64, 64])
        _assert_identical(program, BlockTrace([1]))


class TestApps:
    @pytest.mark.parametrize("name", APPS)
    def test_app_replay_with_data_traffic_and_warmup(self, name):
        app = build_app(name, scale=0.25)
        trace = app.trace(12_000, seed=app.spec.seed + 7)
        _assert_identical(
            program=app.program,
            trace=trace,
            data_traffic=app.data_traffic,
            warmup=2_000,
        )


class TestDataTrafficFastPath:
    def test_model_end_state_matches(self):
        app = build_app("wordpress", scale=0.25)
        trace = app.trace(6_000)

        ref_model = app.data_traffic()
        col_model = app.data_traffic()
        with kernel.reference_path():
            ref_core = CoreSimulator(app.program, data_traffic=ref_model)
            ref_stats = ref_core.run(trace)
        with kernel.force_numpy_kernel():
            col_core = CoreSimulator(app.program, data_traffic=col_model)
            col_stats = col_core.run(trace)
        assert col_core.last_replay_backend == "columnar"
        assert col_stats == ref_stats
        # The fast decode must leave the model exactly where the
        # reference left it: same access count, same fractional
        # accumulator, same RNG state.
        assert col_model.accesses == ref_model.accesses
        assert col_model._accumulator == ref_model._accumulator
        assert col_model._rng.getstate() == ref_model._rng.getstate()

    def test_subclassed_model_uses_recorder_fallback(self):
        class TaggedModel(DataTrafficModel):
            pass

        ref_model = DataTrafficModel(
            rate_per_instruction=0.05, working_set_lines=1024, seed=1234
        )
        col_model = TaggedModel(
            rate_per_instruction=0.05, working_set_lines=1024, seed=1234
        )
        program = make_program([64] * 16)
        trace = BlockTrace([i % 16 for i in range(500)])
        with kernel.reference_path():
            ref_stats = CoreSimulator(
                program, data_traffic=ref_model
            ).run(trace)
        with kernel.force_numpy_kernel():
            col_stats = CoreSimulator(
                program, data_traffic=col_model
            ).run(trace)
        assert col_stats == ref_stats


class TestVectorizationAssumptions:
    def test_accumulate_is_sequential_fold(self):
        """``np.add.accumulate`` must equal the strict left-to-right
        running sum — the property the timing kernel's per-segment
        accumulation is built on."""
        rng = random.Random(99)
        values = np.array(
            [rng.uniform(0.0, 50.0) for _ in range(4096)], dtype=np.float64
        )
        accumulated = np.add.accumulate(values)
        running = 0.0
        for index, value in enumerate(values.tolist()):
            running += value
            assert accumulated[index] == running
