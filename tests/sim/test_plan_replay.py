"""Differential tests: plan-bearing columnar replay vs the reference loop.

The plan kernel (``PlanBatch``, the ``columnar-plan`` backend) must be
*bit-identical* to :class:`CoreSimulator`'s reference loop whenever it
elects to run: every statistic, every float, the final cache residency,
the fill-port clock, and the prefetch engine's runtime state (inflight
map, counting Bloom filter, exact-context history, Fig. 21
true/false-positive accounting).  Equality here is always ``==``, never
approximate.

Configurations the kernel does not model (an attached observer, a
re-used non-pristine simulator) must *provably* fall back to the
reference loop — asserted via ``last_replay_backend``.
"""

from __future__ import annotations

import pytest

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.core.hashing import context_mask
from repro.core.instructions import PrefetchInstr, PrefetchPlan
from repro.sim.cpu import CoreSimulator, TraceObserver
from repro.sim.params import line_of
from repro.sim.trace import BlockTrace

from ..conftest import (
    engine_state as _engine_state,
    hierarchy_state as _hierarchy_state,
    make_program,
)


def _run(program, trace, backend, plan, data_traffic=None, warmup=0, **kwargs):
    with backend():
        core = CoreSimulator(
            program,
            plan=plan,
            data_traffic=data_traffic() if data_traffic else None,
            **kwargs,
        )
        stats = core.run(trace, warmup=warmup)
    return core, stats


def _assert_plan_identical(
    program, trace, plan, data_traffic=None, warmup=0, **kwargs
):
    """Run both backends; assert the kernel engaged and matched exactly."""
    ref_core, ref_stats = _run(
        program, trace, kernel.reference_path, plan,
        data_traffic=data_traffic, warmup=warmup, **kwargs,
    )
    col_core, col_stats = _run(
        program, trace, kernel.force_numpy_kernel, plan,
        data_traffic=data_traffic, warmup=warmup, **kwargs,
    )
    assert ref_core.last_replay_backend == "reference"
    assert col_core.last_replay_backend == "columnar-plan"
    assert col_stats == ref_stats
    assert _hierarchy_state(col_core) == _hierarchy_state(ref_core)
    assert col_core.hierarchy.l1i.stats == ref_core.hierarchy.l1i.stats
    assert col_core.hierarchy.l2.stats == ref_core.hierarchy.l2.stats
    assert col_core.hierarchy.l3.stats == ref_core.hierarchy.l3.stats
    assert _engine_state(col_core) == _engine_state(ref_core)
    return ref_stats


def _plan_of(*instrs):
    plan = PrefetchPlan("test")
    plan.extend(instrs)
    return plan


class TestSyntheticPlans:
    """Tiny hand-built plans covering each instruction kind."""

    def test_unconditional_single_line(self):
        program = make_program([64] * 6)
        target = line_of(program.block(3).address)
        plan = _plan_of(PrefetchInstr(site_block=0, base_line=target))
        _assert_plan_identical(
            program, BlockTrace([0, 1, 2, 3, 0, 3, 1, 0]), plan
        )

    def test_coalesced_lprefetch(self):
        # One Lprefetch covering blocks 3..5 (contiguous lines).
        program = make_program([64] * 8)
        base = line_of(program.block(3).address)
        plan = _plan_of(
            PrefetchInstr(site_block=0, base_line=base, bit_vector=0b11)
        )
        _assert_plan_identical(
            program, BlockTrace([0, 1, 3, 4, 5, 0, 3, 4, 5]), plan
        )

    def test_conditional_cprefetch(self):
        program = make_program([64] * 8)
        target = line_of(program.block(5).address)
        ctx = (1, 2)
        mask = context_mask([program.block(b).address for b in ctx], 16)
        plan = _plan_of(
            PrefetchInstr(
                site_block=3,
                base_line=target,
                context_mask=mask,
                context_blocks=ctx,
            )
        )
        # First visit to site 3 has no context in the LBR (suppressed);
        # later visits follow blocks 1 and 2 (fires).
        trace = BlockTrace([3, 5, 0, 1, 2, 3, 5, 0, 3, 1, 2, 3, 5])
        stats = _assert_plan_identical(program, trace, plan)
        assert stats.prefetches_suppressed > 0

    def test_conditional_mask_zero_always_fires(self):
        program = make_program([64] * 4)
        plan = _plan_of(
            PrefetchInstr(
                site_block=0,
                base_line=line_of(program.block(2).address),
                context_mask=0,
                context_blocks=(),
            )
        )
        _assert_plan_identical(program, BlockTrace([0, 2, 1, 0, 2]), plan)

    def test_clprefetch_conditional_and_coalesced(self):
        program = make_program([64] * 10)
        base = line_of(program.block(6).address)
        mask = context_mask([program.block(1).address], 16)
        plan = _plan_of(
            PrefetchInstr(
                site_block=2,
                base_line=base,
                bit_vector=0b101,
                context_mask=mask,
                context_blocks=(1,),
            )
        )
        trace = BlockTrace([2, 6, 0, 1, 2, 6, 7, 8, 9, 1, 2, 6, 9])
        _assert_plan_identical(program, trace, plan)

    def test_multiple_instructions_per_site(self):
        program = make_program([64] * 8)
        mask = context_mask([program.block(1).address], 16)
        plan = _plan_of(
            PrefetchInstr(site_block=0, base_line=line_of(program.block(3).address)),
            PrefetchInstr(
                site_block=0,
                base_line=line_of(program.block(5).address),
                context_mask=mask,
                context_blocks=(1,),
            ),
            PrefetchInstr(
                site_block=0,
                base_line=line_of(program.block(6).address),
                bit_vector=0b1,
            ),
        )
        trace = BlockTrace([0, 3, 5, 1, 0, 3, 5, 6, 7, 1, 0, 6])
        _assert_plan_identical(program, trace, plan)

    def test_warmup_boundary_with_plan(self):
        program = make_program([64] * 8)
        mask = context_mask([program.block(1).address], 16)
        plan = _plan_of(
            PrefetchInstr(
                site_block=2,
                base_line=line_of(program.block(4).address),
                context_mask=mask,
                context_blocks=(1,),
            )
        )
        trace = BlockTrace([0, 1, 2, 4, 3, 1, 2, 4] * 4)
        _assert_plan_identical(program, trace, plan, warmup=9)
        _assert_plan_identical(
            program, trace, plan, warmup=len(trace.block_ids) - 1
        )

    def test_exact_context_tracking_synthetic(self):
        program = make_program([64] * 8)
        ctx = (1, 2)
        mask = context_mask([program.block(b).address for b in ctx], 16)
        plan = _plan_of(
            PrefetchInstr(
                site_block=3,
                base_line=line_of(program.block(5).address),
                context_mask=mask,
                context_blocks=ctx,
            )
        )
        trace = BlockTrace([1, 2, 3, 5, 0, 3, 5, 1, 2, 3, 5] * 3)
        _assert_plan_identical(
            program, trace, plan, track_exact_context=True
        )


SMALL_EVALUATOR = None


def _small_evaluation():
    global SMALL_EVALUATOR
    if SMALL_EVALUATOR is None:
        SMALL_EVALUATOR = Evaluator(ExperimentSettings.small())["wordpress"]
    return SMALL_EVALUATOR


class TestAppPlans:
    """Real planner output on a real workload, data traffic + warmup."""

    @pytest.mark.parametrize("plan_name", ("asmdb", "ispy"))
    def test_planned_replay_matches(self, plan_name):
        evaluation = _small_evaluation()
        plan = (
            evaluation.asmdb_plan()
            if plan_name == "asmdb"
            else evaluation.ispy_plan()
        )
        stats = _assert_plan_identical(
            evaluation.app.program,
            evaluation.eval_trace,
            plan,
            data_traffic=evaluation.eval_data_traffic,
            warmup=evaluation.settings.warmup,
        )
        # The workload must actually exercise the interesting paths:
        # in-flight arrivals (late prefetch hits) and, for I-SPY's
        # conditional instructions, Bloom-gated suppression.
        assert stats.late_prefetch_hits > 0
        assert stats.prefetches_issued > 0
        if plan_name == "ispy":
            assert stats.prefetches_suppressed > 0

    @pytest.mark.parametrize("plan_name", ("asmdb", "ispy"))
    def test_exact_context_accounting_matches(self, plan_name):
        """Fig. 21 accounting: tp/fp counters and the rate, exactly."""
        evaluation = _small_evaluation()
        plan = (
            evaluation.asmdb_plan()
            if plan_name == "asmdb"
            else evaluation.ispy_plan()
        )
        _assert_plan_identical(
            evaluation.app.program,
            evaluation.eval_trace,
            plan,
            data_traffic=evaluation.eval_data_traffic,
            warmup=evaluation.settings.warmup,
            track_exact_context=True,
        )

    @pytest.mark.parametrize("fraction", (0.0, 0.75))
    def test_insertion_fraction_sweep(self, fraction):
        evaluation = _small_evaluation()
        _assert_plan_identical(
            evaluation.app.program,
            evaluation.eval_trace,
            evaluation.ispy_plan(),
            data_traffic=evaluation.eval_data_traffic,
            warmup=evaluation.settings.warmup,
            prefetch_insertion_fraction=fraction,
        )


class TestFallbacks:
    """Configurations the columnar plan kernel cannot model select the
    reference loop; ``last_replay_backend`` makes the selection
    observable."""

    def _plan_and_program(self):
        program = make_program([64] * 6)
        plan = _plan_of(
            PrefetchInstr(site_block=0, base_line=line_of(program.block(3).address))
        )
        return program, plan, BlockTrace([0, 1, 2, 3, 0, 3])

    def test_observer_forces_reference(self):
        program, plan, trace = self._plan_and_program()
        with kernel.force_numpy_kernel():
            core = CoreSimulator(program, plan=plan)
            col_stats = core.run(trace, observer=TraceObserver())
        assert core.last_replay_backend == "reference"
        with kernel.reference_path():
            ref_core = CoreSimulator(program, plan=plan)
            ref_stats = ref_core.run(trace, observer=TraceObserver())
        assert col_stats == ref_stats

    def test_reused_simulator_forces_reference(self):
        """A second run composes with prior state: reference only."""
        program, plan, trace = self._plan_and_program()
        with kernel.force_numpy_kernel():
            col_core = CoreSimulator(program, plan=plan)
            col_core.run(trace)
            assert col_core.last_replay_backend == "columnar-plan"
            second_col = col_core.run(trace)
            assert col_core.last_replay_backend == "reference"
        with kernel.reference_path():
            ref_core = CoreSimulator(program, plan=plan)
            ref_core.run(trace)
            second_ref = ref_core.run(trace)
        assert second_col == second_ref
        assert _hierarchy_state(col_core) == _hierarchy_state(ref_core)
        assert _engine_state(col_core) == _engine_state(ref_core)

    def test_preseeded_engine_forces_reference(self):
        """Prefetches already in flight are prior state the kernel
        cannot reconstruct from scratch."""
        program, plan, trace = self._plan_and_program()
        with kernel.force_numpy_kernel():
            core = CoreSimulator(program, plan=plan)
            core.engine.inflight[line_of(program.block(3).address)] = 100.0
            core.run(trace)
        assert core.last_replay_backend == "reference"
        assert core.last_fallback_reason == "engine-state"

    def test_empty_plan_takes_plain_columnar(self):
        """A plan with no instructions builds no engine at all, so the
        replay runs the plan-free ``columnar`` backend."""
        program, _, trace = self._plan_and_program()
        with kernel.force_numpy_kernel():
            core = CoreSimulator(program, plan=PrefetchPlan("empty"))
            core.run(trace)
        assert core.engine is None
        assert core.last_replay_backend == "columnar"

    def test_kernel_disabled_takes_reference(self):
        program, plan, trace = self._plan_and_program()
        with kernel.reference_path():
            core = CoreSimulator(program, plan=plan)
            core.run(trace)
        assert core.last_replay_backend == "reference"


class TestAppsAcrossWorkloads:
    @pytest.mark.parametrize("name", ("drupal", "finagle-http"))
    def test_ispy_plan_matches_on_app(self, name):
        evaluation = Evaluator(ExperimentSettings.small())[name]
        app = evaluation.app
        trace = app.trace(8_000, seed=app.spec.seed + 7)
        _assert_plan_identical(
            app.program,
            trace,
            evaluation.ispy_plan(),
            data_traffic=app.data_traffic,
            warmup=1_500,
        )
