"""The figure table: every figure's demand, prewarmed in the pool, is
everything the figure then reads."""

from __future__ import annotations

import pytest

from repro.analysis import experiments as exp
from repro.analysis.experiments import FIGURES, ExperimentSettings
from repro.runconfig import RunConfig

SETTINGS = ExperimentSettings(
    profile_length=4_000, eval_length=2_000, warmup=500, scale=0.05
)
#: the report's apps for the figures that take them; the sweeps run on
#: their own
APPS = ("wordpress",)


def _cold_figure(figure, cache, jobs=2):
    """Prewarm *figure* with *jobs* workers on an empty store, then run
    it: the run's events."""
    config = RunConfig(settings=SETTINGS, store=cache, jobs=jobs)
    with config.session() as evaluator:
        evaluator.prewarm(APPS, figures=[figure])
        figure.result(evaluator, APPS)
    return [e for e in config.tracer.snapshot() if e["ph"] == "X"]


@pytest.mark.parametrize(
    "name", [name for name, figure in FIGURES.items() if figure.apps != ()]
)
def test_the_pool_computes_everything_the_figure_reads(name, tmp_path):
    figure = FIGURES[name]
    events = _cold_figure(figure, tmp_path / "cache")
    (simulate,) = [e for e in events if e["name"] == "prewarm:simulate"]
    end = simulate["ts"] + simulate["dur"]
    late = [
        e["name"] for e in events
        # the parent's own thread: absorbed worker spans carry the
        # worker's pid as their tid
        if e["tid"] == e["pid"] and e["ts"] >= end
        and e["name"].startswith(("plan:", "sim:"))
    ]
    assert late == []
    jobs = {
        e["args"]["app"] for e in events
        if e["name"].startswith("job:")
    }
    assert jobs <= set(figure.apps or APPS)


def test_a_baseline_figure_needs_no_profile(tmp_path):
    """Fig. 1 reads only baselines: no phase-1 job, one replay per app."""
    events = _cold_figure(FIGURES["fig01"], tmp_path / "cache")
    names = [e["name"] for e in events]
    assert "job:prepare-app" not in names
    assert "profiling:execution" not in names
    jobs = [
        (e["name"], e["args"]["app"], e["args"].get("variants"))
        for e in events if e["name"].startswith("job:")
    ]
    assert jobs == [("job:replay-plans", name, 1) for name in APPS], jobs


def test_a_serial_figure_batches_its_plan_variants(tmp_path):
    """With one job the prewarm runs the same jobs in process: each
    app's Fig. 12 variants replay as one batch, none as one slot."""
    events = _cold_figure(FIGURES["fig12"], tmp_path / "cache", jobs=1)
    names = [e["name"] for e in events]
    assert "sim:replay" not in names
    assert names.count("sim:batch-sweep") == names.count(
        "job:replay-plans"
    ) == len(APPS)


def test_report_figures_are_the_titled_entries_in_order():
    titled = [figure for figure in FIGURES.values() if figure.title]
    assert exp.report_figures() == titled
    core = exp.report_figures(include_sweeps=False)
    assert core == [figure for figure in titled if not figure.sweep]
    # the sweep block follows the core figures
    assert titled[: len(core)] == core


def test_sweeps_have_their_own_apps():
    for figure in FIGURES.values():
        if figure.requests is not None:
            assert figure.apps, figure.name
            assert figure.sweep, figure.name


def test_default_prewarm_is_the_core_figures_demand():
    assert exp.DEFAULT_PREWARM_VARIANTS == (
        "baseline", "ideal", "asmdb", "ispy", "ispy-conditional",
        "ispy-coalescing", "contiguous8", "noncontiguous8",
    )


def test_sweep_apps_most_swept_first():
    assert exp.sweep_apps(exp.report_figures()) == (
        "wordpress", "kafka", "verilator", "drupal", "mediawiki",
    )
