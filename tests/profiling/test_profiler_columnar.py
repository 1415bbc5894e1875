"""Differential tests: vectorized profiler vs the observer-driven one.

Every field of :class:`ExecutionProfile` must match exactly — the
profile is the planner's sole input, so any divergence here would
cascade into different plans.
"""

from __future__ import annotations

import pytest

from repro import kernel
from repro.profiling.profiler import profile_execution
from repro.sim.trace import trace_shard_bounds
from repro.workloads.apps import build_app

APPS = ("wordpress", "drupal", "finagle-http")


def _profiles(app, trace, sample_period=1, shard_insns=None):
    results = {}
    for mode, backend in (
        ("ref", kernel.reference_path),
        ("col", kernel.force_numpy_kernel),
    ):
        with backend():
            results[mode] = profile_execution(
                app.program,
                trace,
                sample_period=sample_period,
                data_traffic=app.data_traffic(),
                shard_insns=shard_insns,
            )
    return results["ref"], results["col"]


def _assert_profiles_equal(ref, col):
    assert col.program_name == ref.program_name
    assert col.block_ids == ref.block_ids
    assert col.block_cycles == ref.block_cycles
    assert col.miss_samples == ref.miss_samples
    assert col.edge_counts == ref.edge_counts
    assert col.block_counts == ref.block_counts
    assert col.cumulative_instructions == ref.cumulative_instructions
    assert col.lbr_depth == ref.lbr_depth
    assert col.baseline_stats == ref.baseline_stats


@pytest.mark.parametrize("name", APPS)
def test_profiles_identical_across_apps(name):
    app = build_app(name, scale=0.25)
    trace = app.trace(10_000)
    ref, col = _profiles(app, trace)
    _assert_profiles_equal(ref, col)


@pytest.mark.parametrize("sample_period", [2, 7, 100])
def test_profiles_identical_across_sample_periods(sample_period):
    app = build_app("wordpress", scale=0.25)
    trace = app.trace(10_000)
    ref, col = _profiles(app, trace, sample_period=sample_period)
    _assert_profiles_equal(ref, col)


def test_occurrence_and_window_queries_agree():
    app = build_app("drupal", scale=0.25)
    trace = app.trace(8_000)
    ref, col = _profiles(app, trace)
    hot = ref.block_counts.most_common(5)
    for block, _ in hot:
        assert col.occurrences(block) == ref.occurrences(block)
    for sample in ref.miss_samples[:20]:
        assert (
            col.window(sample.trace_index) == ref.window(sample.trace_index)
        )


def test_sharded_profile_identical_to_reference():
    """The columnar profiler streams shard by shard (``--shard-insns``);
    its profile, data traffic included, equals the reference profile
    cut the same way and the whole-trace one."""
    app = build_app("wordpress", scale=0.25)
    trace = app.trace(10_000)
    shard_insns = 20_000
    assert len(trace_shard_bounds(trace, app.program, shard_insns)) >= 4
    assert app.data_traffic().rate > 0
    ref, col = _profiles(app, trace, sample_period=3, shard_insns=shard_insns)
    _assert_profiles_equal(ref, col)
    whole, _ = _profiles(app, trace, sample_period=3)
    _assert_profiles_equal(whole, col)
