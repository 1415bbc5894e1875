"""The ``run_plans`` batched replay entry point: cache interplay,
which misses share a batch, per-variant overrides, and bit-identity
against the per-variant ``run_plan`` path of a fresh evaluation."""

import pytest

from repro import kernel
from repro.analysis.experiments import (
    FIGURES,
    AppEvaluation,
    Evaluator,
    ExperimentSettings,
    fig18_distance,
    sweep_requests,
)
from repro.core.config import DEFAULT_CONFIG
from repro.core.instructions import PrefetchPlan
from repro.obs.trace import Tracer, summarize
from repro.runconfig import RunConfig

APP = "kafka"
SETTINGS = ExperimentSettings.small()


def _evaluation(**kwargs) -> AppEvaluation:
    # a private tracer per evaluation, so count assertions don't see
    # other tests' traffic
    kwargs.setdefault("tracer", Tracer())
    return AppEvaluation(APP, SETTINGS, **kwargs)


def _summary(traced):
    """The span summary of an evaluation's (or evaluator's) tracer."""
    return summarize(traced.tracer.snapshot())


def _run_variants(traced):
    """The ``variants`` arg of every ``sim:run`` span: the cores each
    :func:`~repro.sim.streaming.run_plan_batch` call replayed."""
    return [
        e["args"]["variants"]
        for e in traced.tracer.snapshot()
        if e["ph"] == "X" and e["name"] == "sim:run"
    ]


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
        assert _summary(evaluation).batch["sweeps"] == 1
        assert _summary(evaluation).batch["batched_replays"] == len(plans)
        solo = _evaluation()
        for plan, stats in zip(plans, sweep):
            assert stats == solo.run_plan(plan)
        assert _summary(solo).batch["sweeps"] == 0

    def test_results_are_cached(self, batched):
        evaluation, plans, sweep = batched
        again = evaluation.run_plans(plans)
        assert again == sweep
        # every slot was a cache hit: no second batched pass
        assert _summary(evaluation).batch["sweeps"] == 1


class TestEligibility:
    def test_partial_cache_hits_batch_only_misses(self):
        evaluation = _evaluation()
        plans = _sweep_plans(evaluation)
        evaluation.run_plan(plans[0])  # warm one variant's key
        sweep = evaluation.run_plans(plans)
        assert _summary(evaluation).batch["sweeps"] == 1
        # only the two cold variants went through the batch
        assert _summary(evaluation).batch["batched_replays"] == 2
        assert sweep[0] == evaluation.run_plan(plans[0])

    def test_single_miss_is_a_one_slot_batch(self):
        evaluation = _evaluation()
        plans = _sweep_plans(evaluation, minima=(13,))
        sweep = evaluation.run_plans(plans)
        summary = _summary(evaluation)
        # one miss is a one-slot run_plan_batch call, traced as a replay
        assert summary.batch["sweeps"] == 0
        assert summary.backend_counts == {"columnar-plan": 1}
        assert _run_variants(evaluation) == [1]
        assert sweep[0] == _evaluation().run_plan(plans[0])

    def test_none_plan_rides_the_batch(self):
        evaluation = _evaluation()
        plans = [None] + _sweep_plans(evaluation, minima=(5, 27))
        sweep = evaluation.run_plans(plans)
        summary = _summary(evaluation)
        assert summary.batch == {
            "sweeps": 1, "batched_replays": 3, "fallbacks": 0,
        }
        # each replay counted once, under the backend that served it
        assert summary.backend_counts == {"columnar": 1, "columnar-plan": 2}
        assert _run_variants(evaluation) == [3]
        solo = _evaluation()
        for plan, stats in zip(plans, sweep):
            assert stats == solo.run_plan(plan)

    def test_one_key_replays_once(self):
        """Items with one stats key share one lookup and one replay, as
        consecutive run_plan calls would."""
        evaluation = _evaluation()
        (plan,) = _sweep_plans(evaluation, minima=(27,))
        renamed = PrefetchPlan("renamed")
        renamed.extend(plan)
        sweep = evaluation.run_plans([plan, None, renamed, None])
        summary = _summary(evaluation)
        assert summary.batch["batched_replays"] == 2
        assert sum(summary.backend_counts.values()) == 2
        assert sweep[0] is sweep[2] and sweep[1] is sweep[3]
        assert sweep[0] == _evaluation().run_plan(plan)

    def test_empty_plans_ride_the_batch(self):
        """Plans with no instructions build no engine: they are
        engine-less slots of the same batch, like ``None``."""
        evaluation = _evaluation()
        plans = [PrefetchPlan("empty"), None] + _sweep_plans(
            evaluation, minima=(5, 27)
        )
        sweep = evaluation.run_plans(plans)
        summary = _summary(evaluation)
        assert summary.batch["fallbacks"] == 0
        assert summary.batch["batched_replays"] == 4
        assert summary.backend_counts == {"columnar": 2, "columnar-plan": 2}
        solo = _evaluation()
        for plan, stats in zip(plans, sweep):
            assert stats == solo.run_plan(plan)


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
        on = Evaluator(config=RunConfig(settings=SETTINGS))
        # checkpointed sharded replays are per-variant by construction
        off = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path, shard_insns=50_000
            )
        )
        rows_on = fig18_distance(on, minima=(5, 27), maxima=(200,), apps=(APP,))
        rows_off = fig18_distance(off, minima=(5, 27), maxima=(200,), apps=(APP,))
        assert rows_on == rows_off
        assert _summary(on).batch["sweeps"] == 1
        assert _summary(off).batch["sweeps"] == 0

    def test_a_shard_budget_replays_each_miss_alone(self):
        """Store or no store, a shard budget streams each miss on its
        own: one sharded replay per stats key, no batch."""
        evaluation = _evaluation(shard_insns=50_000)
        plans = _sweep_plans(evaluation)
        evaluation.run_plans(plans)
        summary = _summary(evaluation)
        assert summary.stage("sim:replay").calls == len(plans)
        assert summary.batch["sweeps"] == 0

    def test_the_variants_do_not_widen_the_sweep_batches(self):
        """The prewarm replays an app's plan variants as a batch of
        their own: merged into Figs. 18 and 19's evaluation-trace
        batches they would widen them, and so a worker's peak RSS."""
        evaluation = _evaluation()
        sweeps = [FIGURES["fig18"], FIGURES["fig19"]]
        variants = ("baseline", "asmdb", "ispy", "ispy-conditional",
                    "ispy-coalescing")
        sweep_requests(evaluation, sweeps)  # trains the sweep plans
        for variant in variants[1:]:
            evaluation.plan_for(variant)
        alone = evaluation.plan_misses(figures=sweeps)
        (trace, pairs), *swept = evaluation.plan_misses(variants, sweeps)
        assert trace is None and len(pairs) == len(variants)
        assert max(len(p) for _, p in swept) <= max(len(p) for _, p in alone)
