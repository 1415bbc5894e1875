"""The per-profile analysis memo (``ExecutionProfile.analysis_memo``).

Site selection and context discovery memoize their answers on the
profile, so a sweep's variants share them.  A memo key that misses a
field the answer depends on would silently serve one variant's answer
to another; these tests build every swept variant on a profile whose
memo the default configuration filled, and require exactly what a
fresh, memo-free copy of the profile produces.  They also pin the
memo's isolation between the reference and columnar engines, and that
it stays invisible to serialization and equality.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import kernel
from repro.baselines.asmdb import build_asmdb_plan
from repro.baselines.contiguous import build_window_plan
from repro.core.config import DEFAULT_CONFIG
from repro.core.ispy import build_ispy_plan
from repro.io import profile_from_dict, profile_to_dict
from repro.obs.trace import Tracer, use_tracer
from repro.profiling.profiler import profile_execution
from repro.workloads.apps import build_app

ISPY_VARIANTS = {
    "default": DEFAULT_CONFIG,
    "window-min-5": DEFAULT_CONFIG.with_window(5, 200),
    "window-min-54": DEFAULT_CONFIG.with_window(54, 200),
    "window-max-100": DEFAULT_CONFIG.with_window(27, 100),
    "window-max-400": DEFAULT_CONFIG.with_window(27, 400),
    "predecessors-1": replace(DEFAULT_CONFIG, max_predecessors=1),
    "predecessors-2": replace(DEFAULT_CONFIG, max_predecessors=2),
    "predecessors-8": replace(
        DEFAULT_CONFIG, max_predecessors=8, enable_coalescing=False
    ),
    "pool-4": replace(DEFAULT_CONFIG, predictor_pool_size=4),
    "coalesce-1": replace(DEFAULT_CONFIG, coalesce_bits=1),
    "coalesce-32": replace(DEFAULT_CONFIG, coalesce_bits=32),
    "hash-4": replace(DEFAULT_CONFIG, context_hash_bits=4),
    "conditional-only": DEFAULT_CONFIG.conditional_only(),
    "coalescing-only": DEFAULT_CONFIG.coalescing_only(),
    "support-40": replace(DEFAULT_CONFIG, min_context_support=40),
    "recall-0.5": replace(DEFAULT_CONFIG, min_context_recall=0.5),
    "probability-0.8": replace(DEFAULT_CONFIG, min_context_probability=0.8),
    "gain-0.4": replace(DEFAULT_CONFIG, min_context_gain=0.4),
    "occurrences-64": replace(DEFAULT_CONFIG, context_discovery_occurrences=64),
    "fanout-threshold-0.6": replace(
        DEFAULT_CONFIG, conditional_fanout_threshold=0.6
    ),
    "miss-samples-6": replace(DEFAULT_CONFIG, min_miss_samples=6),
    "lbr-depth-8": replace(DEFAULT_CONFIG, lbr_depth=8),
}

ASMDB_THRESHOLDS = (0.20, 0.50, 0.80, 0.90, 0.95, 0.99)


@pytest.fixture(scope="module")
def app():
    return build_app("wordpress", scale=0.25)


@pytest.fixture(scope="module")
def profile(app):
    return profile_execution(
        app.program, app.trace(8_000), data_traffic=app.data_traffic()
    )


def _fresh(profile):
    """A copy of *profile* with no memo (nor any other cache)."""
    return profile_from_dict(profile_to_dict(profile))


@pytest.fixture(scope="module")
def filled(app, profile):
    """A copy of the profile whose memo the default config filled, on
    whichever engine the run uses."""
    copy = _fresh(profile)
    build_ispy_plan(app.program, copy, DEFAULT_CONFIG)
    build_asmdb_plan(app.program, copy, DEFAULT_CONFIG)
    build_window_plan(app.program, copy, 8, True, DEFAULT_CONFIG)
    memo = copy.analysis_memo()
    assert memo.candidates and memo.contexts and memo.path_fanouts
    return copy


class TestKeysComplete:
    @pytest.mark.parametrize("name", sorted(ISPY_VARIANTS))
    def test_ispy_variant(self, app, profile, filled, name):
        config = ISPY_VARIANTS[name]
        reused = build_ispy_plan(app.program, filled, config)
        fresh = build_ispy_plan(app.program, _fresh(profile), config)
        assert list(reused.plan) == list(fresh.plan)
        assert reused.report == fresh.report

    @pytest.mark.parametrize("threshold", ASMDB_THRESHOLDS)
    def test_asmdb_threshold(self, app, profile, filled, threshold):
        reused = build_asmdb_plan(
            app.program, filled, DEFAULT_CONFIG, fanout_threshold=threshold
        )
        fresh = build_asmdb_plan(
            app.program, _fresh(profile), DEFAULT_CONFIG,
            fanout_threshold=threshold,
        )
        assert list(reused.plan) == list(fresh.plan)
        assert reused.report == fresh.report

    @pytest.mark.parametrize("threshold", (0.50, 0.99))
    @pytest.mark.parametrize("maximum", (100, 400))
    def test_asmdb_window_variant(self, app, profile, filled, maximum, threshold):
        config = DEFAULT_CONFIG.with_window(27, maximum)
        reused = build_asmdb_plan(app.program, filled, config, threshold)
        fresh = build_asmdb_plan(app.program, _fresh(profile), config, threshold)
        assert list(reused.plan) == list(fresh.plan)
        assert reused.report == fresh.report

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize(
        "config", [DEFAULT_CONFIG, DEFAULT_CONFIG.with_window(54, 200)]
    )
    def test_window_plan(self, app, profile, filled, contiguous, config):
        reused = build_window_plan(app.program, filled, 8, contiguous, config)
        fresh = build_window_plan(
            app.program, _fresh(profile), 8, contiguous, config
        )
        assert reused.name == fresh.name
        assert list(reused) == list(fresh)

    def test_default_rebuild_is_served_by_the_memo(self, app, filled):
        memo = filled.analysis_memo()
        sites, contexts = memo.site_hits, memo.context_hits
        result = build_ispy_plan(app.program, filled, DEFAULT_CONFIG)
        assert memo.site_hits - sites == result.report.considered_lines
        assert memo.context_hits - contexts >= len(result.report.contexts) > 0


class TestIsolation:
    @pytest.mark.parametrize(
        "first, second",
        [
            (kernel.reference_path, kernel.force_numpy_kernel),
            (kernel.force_numpy_kernel, kernel.reference_path),
        ],
    )
    def test_engines_never_share_entries(self, app, profile, first, second):
        copy = _fresh(profile)
        memo = copy.analysis_memo()

        def build():
            ispy = build_ispy_plan(app.program, copy, DEFAULT_CONFIG)
            asmdb = build_asmdb_plan(app.program, copy, DEFAULT_CONFIG)
            return ispy, asmdb

        with first():
            ispy, asmdb = build()
        tables = (memo.candidates, memo.path_fanouts, memo.contexts)
        first_keys = [set(table) for table in tables]
        hits = (memo.site_hits, memo.context_hits)

        with second():
            other_ispy, other_asmdb = build()
            alone = _fresh(profile)
            build_ispy_plan(app.program, alone, DEFAULT_CONFIG)
            build_asmdb_plan(app.program, alone, DEFAULT_CONFIG)
        alone_memo = alone.analysis_memo()
        alone_tables = (
            alone_memo.candidates, alone_memo.path_fanouts, alone_memo.contexts
        )
        # The other engine made its own entries, exactly those it makes
        # on a profile the first engine never touched, and every memo
        # hit it scored is one it scores there too: none of its lookups
        # was served by the first engine's entries, though the answers
        # are the same.
        for table, keys, alone_table in zip(tables, first_keys, alone_tables):
            assert set(table) - keys == set(alone_table)
            assert len(table) == 2 * len(keys)
        assert memo.site_hits - hits[0] == alone_memo.site_hits
        assert memo.context_hits - hits[1] == alone_memo.context_hits
        assert list(other_ispy.plan) == list(ispy.plan)
        assert list(other_asmdb.plan) == list(asmdb.plan)

        # Back on the first engine, its own entries serve the rebuild.
        sites = memo.site_hits
        with first():
            build_ispy_plan(app.program, copy, DEFAULT_CONFIG)
        assert memo.site_hits - sites == ispy.report.considered_lines

    def test_memo_invisible_to_serialization_and_equality(self, profile, filled):
        assert filled.analysis_memo().candidates
        assert profile_to_dict(filled) == profile_to_dict(profile)
        assert filled == profile
        assert filled == _fresh(profile)


class TestReuseOnTrace:
    def test_context_discovery_span_counts_reuse(self, app, profile):
        copy = _fresh(profile)
        memo = copy.analysis_memo()

        def ranked(config):
            """The lines with a ranking for *config*'s window."""
            window = (config.min_prefetch_distance, config.max_prefetch_distance)
            return {key[0] for key in memo.candidates if key[1:3] == window}

        moved = DEFAULT_CONFIG.with_window(5, 200)
        tracer = Tracer()
        with use_tracer(tracer):
            first = build_ispy_plan(app.program, copy, DEFAULT_CONFIG)
            assert not ranked(moved)
            second = build_ispy_plan(app.program, copy, moved)
            build_ispy_plan(app.program, copy, DEFAULT_CONFIG.coalescing_only())
        spans = [
            event["args"]
            for event in tracer.snapshot()
            if event["ph"] == "X" and event["name"] == "analysis:context-discovery"
        ]
        assert len(spans) == 3
        # A cold build ranks and searches everything it considers:
        # the spans count answers taken from earlier builds.
        assert set(first.report.selections) <= ranked(DEFAULT_CONFIG)
        assert (spans[0]["reused_sites"], spans[0]["reused_contexts"]) == (0, 0)
        # A new minimum distance re-ranks every line.
        assert set(second.report.selections) <= ranked(moved)
        assert spans[1]["reused_sites"] == 0
        # The flags change nothing the ranking reads, and without
        # conditional prefetching no context is looked up.
        assert (spans[2]["reused_sites"], spans[2]["reused_contexts"]) == (
            first.report.considered_lines, 0,
        )
