"""Tests for the unified run configuration (repro.runconfig)."""

from __future__ import annotations

import json
import os
import warnings

import pytest

import repro.runconfig as runconfig_mod
from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.cli import build_parser
from repro.io import stats_to_record
from repro.obs.manifest import RunManifest
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer, set_tracer
from repro.perf import PerfRegistry
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
    def test_defaults(self):
        config = RunConfig()
        assert config.settings == ExperimentSettings()
        assert config.jobs == 1
        assert config.store is None
        assert config.numpy_kernel is None
        assert config.tracer is NULL_TRACER

    def test_trace_path_enables_a_live_tracer(self, tmp_path):
        config = RunConfig(trace_path=tmp_path / "t.jsonl")
        assert config.tracer.enabled

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

    def test_null_config_installs_null_tracer(self):
        set_tracer(Tracer())
        RunConfig(settings=SETTINGS).apply()
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

    def test_kernel_gate(self):
        forced_before = kernel._forced
        env_before = os.environ.get(kernel.NUMPY_KERNEL_ENV)
        try:
            RunConfig(settings=SETTINGS, numpy_kernel=False).apply()
            assert not kernel.numpy_enabled()
            assert os.environ[kernel.NUMPY_KERNEL_ENV] == "0"
        finally:
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

    def test_timing_report_printed(self, capsys):
        config = RunConfig(settings=SETTINGS, timing=True)
        evaluator = config.evaluator()
        config.finalize(evaluator)
        assert "timing" in capsys.readouterr().out.lower()


class TestScatteredKwargsRemoved:
    """The PR 4 deprecation cycle is over: scattered kwargs now raise."""

    def test_scattered_kwargs_raise_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="RunConfig"):
            Evaluator(SETTINGS, store=tmp_path / "cache")
        with pytest.raises(TypeError, match="RunConfig"):
            Evaluator(SETTINGS, jobs=2)
        with pytest.raises(TypeError, match="RunConfig"):
            Evaluator(SETTINGS, perf=PerfRegistry())

    def test_shim_is_gone_from_the_module(self):
        assert not hasattr(runconfig_mod, "warn_scattered_kwargs")
        assert "warn_scattered_kwargs" not in runconfig_mod.__all__

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
        set_tracer(None)

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
