"""The evaluator's process-wide app sharing.

``AppEvaluation.app`` goes through the :func:`repro.workloads.apps.get_app`
memo, so every evaluation in a process — and every job a pool worker
runs — reuses one :class:`SyntheticApp` per ``(name, scale)``.  These
tests pin the two halves of that contract: telemetry records only a
real synthesis, and an app used for a full evaluation stays equal to a
freshly built one (sharing is only sound because apps are immutable).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.obs.trace import Tracer, summarize
from repro.runconfig import RunConfig
from repro.workloads import apps as apps_mod
from repro.workloads.apps import build_app

SETTINGS = ExperimentSettings(
    profile_length=8_000, eval_length=10_000, warmup=2_000, scale=0.2
)


@pytest.fixture
def empty_app_memo(monkeypatch):
    """Run the test against an empty process-wide app memo."""
    monkeypatch.setattr(apps_mod, "_CACHE", {})


def _evaluator(tracer=None):
    return Evaluator(config=RunConfig(settings=SETTINGS, tracer=tracer or Tracer()))


def _synth_spans(tracer):
    return [
        e
        for e in tracer.snapshot()
        if e["ph"] == "X" and e["name"] == "app:synthesize"
    ]


class TestSharedApp:
    def test_evaluators_share_one_app_and_time_one_synthesis(
        self, empty_app_memo
    ):
        first_tracer, second_tracer = Tracer(), Tracer()
        first = _evaluator(first_tracer)["kafka"].app
        second = _evaluator(second_tracer)["kafka"].app
        assert first is second
        assert summarize(first_tracer.snapshot()).stage("app:synthesize").calls == 1
        assert summarize(second_tracer.snapshot()).stage("app:synthesize").calls == 0
        assert len(_synth_spans(first_tracer)) == 1
        assert _synth_spans(second_tracer) == []


    def test_evaluations_share_one_eval_trace(self, monkeypatch):
        """A worker's jobs each build an evaluation: the trace memo
        generates the app's evaluation trace once for all of them."""
        monkeypatch.setattr(apps_mod, "_TRACES", {})
        app = apps_mod.get_app("kafka", SETTINGS.scale)
        calls = []
        real = type(app).trace

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(type(app), "trace", counted)
        first = _evaluator()["kafka"].eval_trace
        second = _evaluator()["kafka"].eval_trace
        assert first is second
        assert len(calls) == 1
        assert first == real(
            app, SETTINGS.eval_length, seed=app.spec.seed + 31337,
            input_name="eval",
        )


class TestAppImmutability:
    """A full evaluation must leave the shared app as it was built."""

    @pytest.mark.parametrize("name", ["wordpress", "verilator"])
    def test_full_evaluation_keeps_app_equal_to_fresh_build(
        self, empty_app_memo, name
    ):
        evaluation = _evaluator()[name]
        evaluation.profile
        evaluation.ispy_plan()
        evaluation.stats_for("ispy")
        evaluation.stats_for("contiguous8")
        shared = evaluation.app
        assert apps_mod.get_app(name, SETTINGS.scale) is shared

        fresh = build_app(name, scale=SETTINGS.scale)
        assert shared.spec == fresh.spec
        assert shared.program.name == fresh.program.name
        assert list(shared.program) == list(fresh.program)
        assert shared.model.entry == fresh.model.entry
        assert shared.model.type_markers == fresh.model.type_markers
        assert shared.model.block_ids() == fresh.model.block_ids()
        for block_id in fresh.model.block_ids():
            assert shared.model.terminator(block_id) == fresh.model.terminator(
                block_id
            )
        assert shared.dispatch_block == fresh.dispatch_block
        assert shared.handler_entries == fresh.handler_entries
