"""Parallel evaluation and artifact-cache integration tests.

The contract under test: whatever the job count and whatever the
cache state, an (app, variant) simulation yields bit-identical
statistics — and a warm cache replaces simulation entirely.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.experiments import (
    DEFAULT_PREWARM_VARIANTS,
    Evaluator,
    ExperimentSettings,
)
from repro.analysis.jobs import resolve_jobs
from repro.io import ArtifactStore, stats_to_record
from repro.obs.trace import Tracer
from repro.perf import PerfRegistry
from repro.runconfig import RunConfig
from repro.workloads import apps as apps_mod

APPS = ("wordpress", "kafka")
#: contiguous8 is a mechanism member: it replays outside run_plan, on
#: whatever app object the worker already holds
VARIANTS = ("baseline", "ideal", "asmdb", "ispy", "contiguous8")

SETTINGS = ExperimentSettings(
    profile_length=12_000, eval_length=15_000, warmup=3_000, scale=0.25
)


@pytest.fixture(scope="module")
def serial_evaluator():
    evaluator = Evaluator(SETTINGS)
    evaluator.prewarm(apps=APPS, variants=VARIANTS)
    return evaluator


@pytest.fixture(scope="module")
def serial_records(serial_evaluator):
    return {
        (name, variant): stats_to_record(
            serial_evaluator[name].stats_for(variant)
        )
        for name in APPS
        for variant in VARIANTS
    }


class TestParallelEqualsSerial:
    def test_two_workers_bit_identical(self, serial_records):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        evaluator.prewarm(apps=APPS, variants=VARIANTS)
        for name in APPS:
            for variant in VARIANTS:
                assert (
                    stats_to_record(evaluator[name].stats_for(variant))
                    == serial_records[(name, variant)]
                ), f"{name}/{variant} diverged under jobs=2"

    def test_sharded_workers_bit_identical(self):
        """--jobs 2 --shard-insns N: every worker streams its replays
        in shards, bit-identically to a serial whole-trace run."""
        config = RunConfig(settings=SETTINGS, jobs=2, shard_insns=4_000)
        evaluator = Evaluator(config=config)
        evaluator.prewarm(apps=["wordpress"], variants=("baseline", "ideal"))
        serial = Evaluator(SETTINGS)
        for variant in ("baseline", "ideal"):
            assert (
                stats_to_record(evaluator["wordpress"].stats_for(variant))
                == stats_to_record(serial["wordpress"].stats_for(variant))
            ), f"{variant} diverged under jobs=2 with shard_insns"

    def test_parallel_prewarm_populates_memory_caches(self):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        evaluator.prewarm(apps=["wordpress"], variants=VARIANTS)
        perf = PerfRegistry()
        evaluator.perf = perf
        for evaluation in evaluator._apps.values():
            evaluation.perf = perf
        # every variant must now come from the in-memory/persistent
        # caches — no further simulation in the parent
        for variant in VARIANTS:
            evaluator["wordpress"].stats_for(variant)
        assert perf.calls("simulate") == 0

    def test_workers_synthesize_each_app_at_most_once(self, monkeypatch):
        # an empty memo, so forked workers cannot inherit the parent's apps
        monkeypatch.setattr(apps_mod, "_CACHE", {})
        tracer = Tracer()
        evaluator = Evaluator(
            config=RunConfig(settings=SETTINGS, jobs=2, tracer=tracer)
        )
        evaluator.prewarm(apps=APPS, variants=VARIANTS)
        synth = Counter(
            (e["tid"], e["args"]["app"])
            for e in tracer.snapshot()
            if e["ph"] == "X" and e["name"] == "app:synthesize"
        )
        assert synth, "no worker synthesized anything"
        assert max(synth.values()) == 1, synth

    def test_ephemeral_store_created_for_parallel_runs(self):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        assert evaluator.store is None
        evaluator._ensure_store()
        assert isinstance(evaluator.store, ArtifactStore)
        assert evaluator._ephemeral_store is not None


class TestPersistentWarmRun:
    def test_second_run_skips_profiling_and_simulation(
        self, tmp_path, serial_records
    ):
        cold_perf = PerfRegistry()
        cold = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path / "cache", perf=cold_perf
            )
        )
        cold.prewarm(apps=["wordpress"], variants=VARIANTS)
        assert cold_perf.calls("simulate") == len(VARIANTS)
        assert cold_perf.calls("profile") == 1

        warm_perf = PerfRegistry()
        warm = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path / "cache", perf=warm_perf
            )
        )
        warm.prewarm(apps=["wordpress"], variants=VARIANTS)
        assert warm_perf.calls("simulate") == 0
        assert warm_perf.calls("profile") == 0
        assert warm_perf.calls("synthesize") == 0
        assert warm_perf.calls("store-hit:stats") == len(VARIANTS)
        for variant in VARIANTS:
            assert (
                stats_to_record(warm["wordpress"].stats_for(variant))
                == serial_records[("wordpress", variant)]
            )

    def test_warm_mechanism_variants_never_synthesize_or_train(
        self, tmp_path, monkeypatch
    ):
        variants = DEFAULT_PREWARM_VARIANTS + ("nextline", "fdip", "mana")
        cache = tmp_path / "cache"
        cold = Evaluator(config=RunConfig(settings=SETTINGS, store=cache))
        cold.prewarm(apps=["wordpress"], variants=variants)

        # a fresh process's view: nothing memoized, only the store
        monkeypatch.setattr(apps_mod, "_CACHE", {})
        warm_perf = PerfRegistry()
        warm = Evaluator(
            config=RunConfig(settings=SETTINGS, store=cache, perf=warm_perf)
        )
        warm.prewarm(apps=["wordpress"], variants=variants)
        for stage in ("synthesize", "profile", "simulate", "store-hit:profile"):
            assert warm_perf.calls(stage) == 0, stage
        trained = {
            name: counter.calls
            for name, counter in warm_perf.counters.items()
            if name.startswith("plan:") and counter.calls
        }
        assert trained == {}
        for variant in variants:
            assert stats_to_record(
                warm["wordpress"].stats_for(variant)
            ) == stats_to_record(cold["wordpress"].stats_for(variant)), variant


class TestKeyGranularity:
    """Sweep points must never alias each other's cached artifacts."""

    def evaluation(self):
        return Evaluator(SETTINGS)["wordpress"]

    def test_key_depends_on_settings(self):
        a = self.evaluation()
        b = Evaluator(
            ExperimentSettings(
                profile_length=12_000,
                eval_length=15_000,
                warmup=4_000,  # only the warmup differs
                scale=0.25,
            )
        )["wordpress"]
        assert a._stats_key(None, 16, False, None) != b._stats_key(
            None, 16, False, None
        )

    def test_key_depends_on_run_parameters(self):
        ev = self.evaluation()
        base = ev._stats_key(None, 16, False, None)
        assert ev._stats_key(None, 8, False, None) != base
        assert ev._stats_key(None, 16, True, None) != base
        assert ev._stats_key(None, 16, False, None, ideal=True) != base

    def test_key_depends_on_trace_identity(self):
        ev = self.evaluation()
        app = ev.app
        t1 = app.trace(2_000, seed=1, input_name="a")
        t2 = app.trace(2_000, seed=2, input_name="a")
        t3 = app.trace(2_000, seed=1, input_name="b")
        keys = {
            ev._stats_key(None, 16, False, t)
            for t in (None, t1, t2, t3)
        }
        assert len(keys) == 4

    def test_plan_keys_depend_on_planner_parameters(self):
        from repro.baselines import get_prefetcher
        from repro.core.config import DEFAULT_CONFIG

        ev = self.evaluation()

        def plan_key(prefetcher):
            return ev._key("plan", **prefetcher.plan_key_parts())

        assert plan_key(
            get_prefetcher("asmdb", fanout_threshold=0.90)
        ) != plan_key(get_prefetcher("asmdb", fanout_threshold=0.95))
        assert plan_key(get_prefetcher("ispy")) != plan_key(
            get_prefetcher("ispy", config=DEFAULT_CONFIG.conditional_only())
        )

    def test_sweep_stats_do_not_alias(self, tmp_path):
        """Fig. 3-style sweep: distinct thresholds, distinct artifacts."""
        perf = PerfRegistry()
        evaluator = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path / "cache", perf=perf
            )
        )
        ev = evaluator["wordpress"]
        low = ev.run_plan(ev.asmdb_plan(0.5))
        high = ev.run_plan(ev.asmdb_plan(0.99))
        # the two planner outputs genuinely differ, and so must the
        # cached stats entries (no aliasing between sweep points)
        assert stats_to_record(low) != stats_to_record(high)
        assert perf.calls("simulate") == 2


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(-2) >= 1


def test_default_prewarm_variants_are_known():
    evaluator = Evaluator(SETTINGS)
    evaluation = evaluator["wordpress"]
    for variant in DEFAULT_PREWARM_VARIANTS:
        # stats_for would raise KeyError on an unknown name; probing
        # the dispatch table must not require running simulations
        assert variant in (
            "baseline", "ideal", "asmdb", "ispy", "ispy-conditional",
            "ispy-coalescing", "contiguous8", "noncontiguous8", "nextline",
        )
    assert evaluation.name == "wordpress"
