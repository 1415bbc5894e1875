"""Tests for the unified run configuration (repro.runconfig)."""

from __future__ import annotations

import gc
import json
import os
import warnings

import pytest

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.cli import build_parser
from repro.io import stats_to_record
from repro.obs.manifest import RunManifest
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer, set_tracer, summarize
from repro.runconfig import RunConfig

SETTINGS = ExperimentSettings(
    profile_length=6_000, eval_length=8_000, warmup=1_500, scale=0.15
)

FAST = [
    "--scale", "0.15", "--profile-blocks", "6000",
    "--eval-blocks", "8000", "--warmup", "1500",
]


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    yield
    set_tracer(None)


class TestDefaults:
    def test_settings_only_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Evaluator(SETTINGS)
            Evaluator()

    def test_config_construction_is_silent(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluator = Evaluator(
                config=RunConfig(
                    settings=SETTINGS, store=tmp_path / "cache", jobs=2
                )
            )
        assert evaluator.jobs == 2
        assert evaluator.store is not None
        assert evaluator.config.settings == SETTINGS

    def test_defaults(self):
        config = RunConfig()
        assert config.settings == ExperimentSettings()
        assert config.jobs == 1
        assert config.store is None
        assert config.numpy_kernel is None
        # every run records spans; --trace only decides whether they
        # are written
        assert isinstance(config.tracer, Tracer)

    def test_trace_path_enables_a_live_tracer(self, tmp_path):
        config = RunConfig(trace_path=tmp_path / "t.jsonl")
        assert config.tracer.enabled

    def test_each_config_gets_its_own_tracer(self):
        assert RunConfig().tracer is not RunConfig().tracer

    def test_run_config_has_no_perf_field(self):
        import dataclasses

        assert "perf" not in {f.name for f in dataclasses.fields(RunConfig)}

    def test_explicit_tracer_wins(self):
        tracer = Tracer()
        config = RunConfig(tracer=tracer)
        assert config.tracer is tracer


class TestFromArgs:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_maps_scale_and_lengths(self):
        args = self.parse(["evaluate", "wordpress", *FAST])
        config = RunConfig.from_args(args)
        assert config.settings == SETTINGS
        assert config.command == "evaluate"

    def test_maps_execution_flags(self, tmp_path):
        cache = str(tmp_path / "cache")
        args = self.parse(
            ["evaluate", "wordpress", *FAST, "--jobs", "3", "--cache", cache]
        )
        config = RunConfig.from_args(args)
        assert config.jobs == 3
        assert config.store == cache

    def test_no_cache_overrides_cache(self, tmp_path):
        args = self.parse(
            ["evaluate", "wordpress", *FAST,
             "--cache", str(tmp_path), "--no-cache"]
        )
        assert RunConfig.from_args(args).store is None

    def test_no_numpy_kernel_flag(self):
        args = self.parse(["evaluate", "wordpress", *FAST, "--no-numpy-kernel"])
        assert RunConfig.from_args(args).numpy_kernel is False
        args = self.parse(["evaluate", "wordpress", *FAST])
        assert RunConfig.from_args(args).numpy_kernel is None

    @pytest.mark.parametrize("flag", ("--plan-batch", "--no-plan-batch"))
    def test_plan_batch_flags_are_gone(self, flag, capsys):
        """One plan kernel serves every replay, so there is no batching
        choice to make."""
        with pytest.raises(SystemExit):
            self.parse(["evaluate", "wordpress", *FAST, flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_maps_telemetry_flags(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        manifest = str(tmp_path / "m.json")
        args = self.parse(
            ["evaluate", "wordpress", *FAST,
             "--timing", "--trace", trace, "--manifest", manifest]
        )
        config = RunConfig.from_args(args)
        assert config.timing is True
        assert config.trace_path == trace
        assert config.manifest_path == manifest
        assert config.tracer.enabled


class TestApply:
    def test_installs_tracer(self, tmp_path):
        config = RunConfig(settings=SETTINGS, trace_path=tmp_path / "t.jsonl")
        config.apply()
        assert get_tracer() is config.tracer
        config.finalize()

    def test_null_config_installs_null_tracer(self):
        set_tracer(Tracer())
        config = RunConfig(settings=SETTINGS, tracer=NULL_TRACER)
        config.apply()
        assert get_tracer() is NULL_TRACER
        config.finalize()

    def test_untraced_config_still_installs_a_live_tracer(self):
        config = RunConfig(settings=SETTINGS)
        config.apply()
        assert get_tracer() is config.tracer
        assert config.tracer.enabled
        config.finalize()

    def test_finalize_uninstalls_the_run_tracer(self):
        config = RunConfig(settings=SETTINGS, command="evaluate")
        evaluator = config.evaluator()
        config.finalize(evaluator)
        # outside a run nothing records, so long-lived processes do
        # not accumulate events
        assert get_tracer() is NULL_TRACER

    def test_opens_root_span_once(self, tmp_path):
        config = RunConfig(
            settings=SETTINGS, trace_path=tmp_path / "t.jsonl",
            command="evaluate",
        )
        config.apply()
        config.apply()
        assert config.tracer.current_span.name == "run:evaluate"
        root = config._root_span
        config.apply()
        assert config._root_span is root
        config.finalize()

    def test_kernel_gate(self):
        forced_before = kernel._forced
        env_before = os.environ.get(kernel.NUMPY_KERNEL_ENV)
        config = RunConfig(settings=SETTINGS, numpy_kernel=False)
        try:
            config.apply()
            assert not kernel.numpy_enabled()
            assert os.environ[kernel.NUMPY_KERNEL_ENV] == "0"
        finally:
            config.finalize()
            kernel.set_numpy_kernel(forced_before)
            if env_before is None:
                os.environ.pop(kernel.NUMPY_KERNEL_ENV, None)
            else:
                os.environ[kernel.NUMPY_KERNEL_ENV] = env_before


class TestFinalize:
    def test_writes_trace_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        manifest_path = tmp_path / "m.json"
        config = RunConfig(
            settings=SETTINGS, trace_path=trace_path,
            manifest_path=manifest_path, command="evaluate",
        )
        evaluator = config.evaluator()
        evaluator.prewarm(apps=["wordpress"], variants=("baseline",))
        config.finalize(evaluator)

        assert trace_path.exists()
        from repro.obs.trace import read_trace

        events = read_trace(trace_path)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "run:evaluate" in names
        assert "sim:run" in names

        manifest = RunManifest.load(manifest_path)
        assert manifest.payload["command"] == "evaluate"
        assert manifest.payload["trace_path"] == str(trace_path)

        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "manifest written to" in out

    def test_manifest_needs_the_evaluator(self, tmp_path):
        config = RunConfig(settings=SETTINGS, manifest_path=tmp_path / "m.json")
        config.apply()
        with pytest.raises(ValueError, match="evaluator"):
            config.finalize()
        # the run still ended
        assert gc.isenabled()
        assert get_tracer() is NULL_TRACER

    def test_timing_report_printed(self, capsys):
        config = RunConfig(settings=SETTINGS, timing=True)
        evaluator = config.evaluator()
        config.finalize(evaluator)
        assert "timing" in capsys.readouterr().out.lower()

    def test_timing_table_is_the_span_summary(self, capsys):
        config = RunConfig(settings=SETTINGS, timing=True, command="evaluate")
        evaluator = config.evaluator()
        evaluator.prewarm(apps=["wordpress"], variants=("baseline",))
        config.finalize(evaluator)
        out = capsys.readouterr().out
        assert summarize(config.tracer.snapshot()).report() in out
        assert "replay backends:" in out


class TestCollectorPolicy:
    """A run owns the cyclic collector: :meth:`RunConfig.apply` pauses
    it and :meth:`RunConfig.finalize` restores what the caller had."""

    def test_apply_pauses_and_finalize_restores(self):
        assert gc.isenabled()
        config = RunConfig(settings=SETTINGS)
        config.apply()
        assert not gc.isenabled()
        # a second apply keeps the state saved by the first
        config.apply()
        assert not gc.isenabled()
        config.finalize()
        assert gc.isenabled()

    def test_finalize_keeps_a_callers_paused_collector(self):
        gc.disable()
        try:
            config = RunConfig(settings=SETTINGS)
            config.apply()
            config.finalize()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_session_ends_a_failing_run(self, tmp_path):
        config = RunConfig(
            settings=SETTINGS, trace_path=tmp_path / "t.jsonl",
            command="evaluate",
        )
        with pytest.raises(RuntimeError):
            with config.session():
                raise RuntimeError("mid-run failure")
        assert gc.isenabled()
        assert get_tracer() is NULL_TRACER
        assert config.tracer.current_span is None
        assert not (tmp_path / "t.jsonl").exists()

    def test_run_span_counts_collections(self):
        """``gc_collections`` on the root span: 0 for a paused run,
        and it counts a collection something forces mid-run."""
        counts = []
        for force in (False, True):
            config = RunConfig(settings=SETTINGS, command="evaluate")
            with config.session() as evaluator:
                evaluator.prewarm(apps=["wordpress"], variants=("baseline",))
                if force:
                    gc.collect()
            (run,) = [
                e for e in config.tracer.snapshot()
                if e["name"] == "run:evaluate"
            ]
            counts.append(run["args"]["gc_collections"])
        assert counts[0] == 0
        assert counts[1] >= 1

    def test_run_survivors_end_in_the_oldest_generation(self):
        """Ending a run moves what it left alive to the oldest
        generation, so the first collection after it does not walk
        the run's whole heap."""
        with RunConfig(settings=SETTINGS).session():
            survivor = []
        assert gc.isenabled()
        assert any(o is survivor for o in gc.get_objects(generation=2))

    def test_run_end_keeps_a_callers_frozen_objects(self):
        frozen = []
        gc.freeze()
        try:
            count = gc.get_freeze_count()
            with RunConfig(settings=SETTINGS).session():
                pass
            assert gc.get_freeze_count() == count
            assert not any(o is frozen for o in gc.get_objects(generation=2))
        finally:
            gc.unfreeze()

    def test_pipeline_makes_no_reference_cycles(self):
        """The precondition of pausing the collector: an evaluation
        leaves no cyclic garbage, so reference counting alone frees
        everything a run drops.  The warm-up run pays the lazy imports
        (some of which build cycles once)."""
        variants = ("baseline", "ideal", "asmdb", "ispy")

        def evaluate(app):
            with RunConfig(settings=SETTINGS).session() as evaluator:
                evaluator.prewarm(apps=[app], variants=variants)
                evaluation = evaluator[app]
                for variant in variants[1:]:
                    evaluation.speedup(variant)

        evaluate("finagle-chirper")
        gc.collect()
        evaluate("wordpress")
        assert gc.collect() == 0


class TestTracingIsInert:
    """The differential guarantee: telemetry must only observe."""

    def test_stats_bit_identical_tracing_on_vs_off(self, tmp_path):
        variants = ("baseline", "ispy")

        plain = RunConfig(settings=SETTINGS).evaluator()
        plain.prewarm(apps=["wordpress"], variants=variants)
        baseline = {
            v: stats_to_record(plain["wordpress"].stats_for(v))
            for v in variants
        }
        plain.config.finalize()

        config = RunConfig(
            settings=SETTINGS, trace_path=tmp_path / "t.jsonl",
            command="evaluate",
        )
        traced = config.evaluator()
        traced.prewarm(apps=["wordpress"], variants=variants)
        for v in variants:
            assert (
                stats_to_record(traced["wordpress"].stats_for(v))
                == baseline[v]
            ), f"{v} diverged under tracing"
        # and the trace actually captured the work
        assert len(config.tracer) > 0
        config.finalize(traced)

    def test_null_tracer_run_bit_identical(self):
        """A run with nothing recording matches a recorded one."""
        records = []
        for tracer in (NULL_TRACER, Tracer()):
            evaluator = RunConfig(settings=SETTINGS, tracer=tracer).evaluator()
            records.append(
                stats_to_record(evaluator["wordpress"].stats_for("ispy"))
            )
            evaluator.config.finalize()
        assert records[0] == records[1]
