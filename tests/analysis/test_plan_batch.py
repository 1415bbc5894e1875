"""The ``run_plans`` batched sweep entry point: cache interplay,
eligibility gating, per-variant overrides, and bit-identity against
the per-variant ``run_plan`` path of a fresh evaluation."""

import pytest

from repro import kernel
from repro.analysis.experiments import (
    AppEvaluation,
    Evaluator,
    ExperimentSettings,
    fig18_distance,
)
from repro import perf as perf_mod
from repro.core.config import DEFAULT_CONFIG
from repro.core.instructions import PrefetchPlan
from repro.runconfig import RunConfig

APP = "kafka"
SETTINGS = ExperimentSettings.small()


def _evaluation(**kwargs) -> AppEvaluation:
    # a private perf registry per evaluation, so counter assertions
    # don't see other tests' (or the process-wide registry's) traffic
    kwargs.setdefault("perf", perf_mod.PerfRegistry())
    return AppEvaluation(APP, SETTINGS, **kwargs)


def _sweep_plans(evaluation, minima=(5, 27, 108)):
    return [
        evaluation.ispy_plan(
            DEFAULT_CONFIG.with_window(m, DEFAULT_CONFIG.max_prefetch_distance)
        )
        for m in minima
    ]


@pytest.fixture(scope="module", autouse=True)
def _columnar_kernel():
    # this module asserts batch-replay counters, which require the
    # kernel; pin it on so the module is independent of
    # REPRO_NUMPY_KERNEL (kernel-off batching equality lives in
    # tests/sim/test_batch_differential.py)
    with kernel.force_numpy_kernel():
        yield


@pytest.fixture(scope="module")
def batched():
    """One batched sweep, shared across the identity assertions."""
    evaluation = _evaluation()
    plans = _sweep_plans(evaluation)
    return evaluation, plans, evaluation.run_plans(plans)


class TestBitIdentity:
    def test_matches_run_plan(self, batched):
        evaluation, plans, sweep = batched
        assert evaluation.perf.calls("sweep:batch") == 1
        assert evaluation.perf.calls("batch-replay") == len(plans)
        solo = _evaluation()
        for plan, stats in zip(plans, sweep):
            assert stats == solo.run_plan(plan)
        assert solo.perf.calls("sweep:batch") == 0

    def test_results_are_cached(self, batched):
        evaluation, plans, sweep = batched
        again = evaluation.run_plans(plans)
        assert again == sweep
        # every slot was a cache hit: no second batched pass
        assert evaluation.perf.calls("sweep:batch") == 1


class TestEligibility:
    def test_partial_cache_hits_batch_only_misses(self):
        evaluation = _evaluation()
        plans = _sweep_plans(evaluation)
        evaluation.run_plan(plans[0])  # warm one variant's key
        sweep = evaluation.run_plans(plans)
        assert evaluation.perf.calls("sweep:batch") == 1
        # only the two cold variants went through the batch
        assert evaluation.perf.calls("batch-replay") == 2
        assert sweep[0] == evaluation.run_plan(plans[0])

    def test_auto_mode_runs_single_miss_solo(self):
        evaluation = _evaluation()
        plans = _sweep_plans(evaluation, minima=(13,))
        evaluation.run_plans(plans)
        assert evaluation.perf.calls("sweep:batch") == 0
        assert evaluation.perf.calls("simulate:columnar-plan") == 1

    def test_none_plan_rides_the_solo_path(self):
        evaluation = _evaluation()
        plans = [None] + _sweep_plans(evaluation, minima=(5, 27))
        sweep = evaluation.run_plans(plans)
        assert sweep[0] == evaluation.baseline_stats
        assert evaluation.perf.calls("batch-replay") == 2

    def test_empty_plans_stay_out_of_the_batch(self):
        """Plans with no instructions build no engine, so they never
        enter the batch to bounce off it."""
        evaluation = _evaluation()
        plans = [PrefetchPlan("empty"), None] + _sweep_plans(
            evaluation, minima=(5, 27)
        )
        sweep = evaluation.run_plans(plans)
        assert evaluation.perf.calls("batch-fallback") == 0
        assert evaluation.perf.calls("batch-replay") == 2
        assert sweep[0] == _evaluation().run_plan(plans[0])


class TestOverrides:
    def test_per_variant_hash_bits(self):
        evaluation = _evaluation()
        plan = evaluation.ispy_plan()
        items = [
            (plan, {"hash_bits": bits, "track_exact_context": True})
            for bits in (8, 16)
        ]
        sweep = evaluation.run_plans(items)
        solo = _evaluation()
        for (plan_i, kw), stats in zip(items, sweep):
            assert stats == solo.run_plan(plan_i, **kw)
            assert stats.false_positive_rate == (
                solo.run_plan(plan_i, **kw).false_positive_rate
            )


class TestEvaluatorPlumbing:
    def test_figure_sweep_is_identical_either_way(self, tmp_path):
        on = Evaluator(
            config=RunConfig(settings=SETTINGS, perf=perf_mod.PerfRegistry())
        )
        # checkpointed sharded replays are per-variant by construction
        off = Evaluator(
            config=RunConfig(
                settings=SETTINGS,
                store=tmp_path,
                shard_insns=50_000,
                perf=perf_mod.PerfRegistry(),
            )
        )
        rows_on = fig18_distance(on, minima=(5, 27), maxima=(200,), apps=(APP,))
        rows_off = fig18_distance(off, minima=(5, 27), maxima=(200,), apps=(APP,))
        assert rows_on == rows_off
        assert on.perf.calls("sweep:batch") == 1
        assert off.perf.calls("sweep:batch") == 0
