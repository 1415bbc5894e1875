"""Cross-module integration tests: the whole pipeline, end to end.

These follow the paper's Fig. 9 usage model on a scaled-down
application: online profiling -> offline analysis -> injected binary
-> evaluation, and assert the orderings the paper's evaluation
establishes.
"""

import pytest

from repro.baselines.asmdb import build_asmdb_plan
from repro.baselines.contiguous import build_window_plan
from repro.baselines.protocol import ProfileView, get_prefetcher
from repro.core.config import DEFAULT_CONFIG
from repro.core.ispy import ISpy, build_ispy_plan
from repro.profiling.profiler import profile_execution
from repro.sim.cpu import CoreSimulator, simulate
from repro.workloads.apps import build_app

WARMUP = 4000


@pytest.fixture(scope="module")
def pipeline(small_app_mod):
    app = small_app_mod
    profile = profile_execution(
        app.program, app.trace(20_000), data_traffic=app.data_traffic()
    )
    eval_trace = app.trace(24_000, seed=app.spec.seed + 31337)
    return app, profile, eval_trace


@pytest.fixture(scope="module")
def small_app_mod():
    return build_app("tomcat", scale=0.3)


def run(app, trace, plan=None):
    return simulate(
        app.program,
        trace,
        plan=plan,
        warmup=WARMUP,
        data_traffic=app.data_traffic(seed=2),
    )


class TestPipelineOrderings:
    def test_speedup_ordering(self, pipeline):
        app, profile, trace = pipeline
        ispy = build_ispy_plan(app.program, profile).plan
        asmdb = build_asmdb_plan(app.program, profile).plan
        base = run(app, trace)
        s_ideal = base.ideal_bound()
        s_ispy = run(app, trace, plan=ispy)
        s_asmdb = run(app, trace, plan=asmdb)
        assert s_ideal.cycles < s_ispy.cycles < base.cycles
        assert s_ideal.cycles < s_asmdb.cycles < base.cycles

    def test_mpki_nearly_eliminated(self, pipeline):
        app, profile, trace = pipeline
        ispy = build_ispy_plan(app.program, profile).plan
        base = run(app, trace)
        s_ispy = run(app, trace, plan=ispy)
        assert s_ispy.l1i_mpki < 0.4 * base.l1i_mpki

    def test_ispy_plans_fewer_instructions_than_asmdb(self, pipeline):
        app, profile, _ = pipeline
        ispy = build_ispy_plan(app.program, profile).plan
        asmdb = build_asmdb_plan(app.program, profile).plan
        assert len(ispy) < len(asmdb)
        assert ispy.static_bytes < asmdb.static_bytes

    def test_ablation_arms_beat_baseline(self, pipeline):
        app, profile, trace = pipeline
        base = run(app, trace)
        for config in (
            DEFAULT_CONFIG.conditional_only(),
            DEFAULT_CONFIG.coalescing_only(),
        ):
            plan = ISpy(config).build_plan(app.program, profile).plan
            stats = run(app, trace, plan=plan)
            assert stats.cycles < base.cycles


class TestWindowLimitStudy:
    def test_noncontiguous_prefetches_fewer_lines_for_same_misses(self, pipeline):
        app, profile, trace = pipeline
        contiguous = build_window_plan(app.program, profile)
        noncontiguous = build_window_plan(app.program, profile, contiguous=False)
        s_c = run(app, trace, plan=contiguous)
        s_n = run(app, trace, plan=noncontiguous)
        assert s_n.prefetches_issued < s_c.prefetches_issued
        # both eliminate the bulk of misses
        base = run(app, trace)
        assert s_c.l1i_mpki < 0.5 * base.l1i_mpki
        assert s_n.l1i_mpki < 0.5 * base.l1i_mpki


class TestProfilingConsistency:
    def test_profile_matches_simulation(self, pipeline):
        app, profile, _ = pipeline
        assert profile.baseline_stats is not None
        assert profile.sampled_miss_count == profile.baseline_stats.l1i_misses

    def test_cfg_reconstruction(self, pipeline):
        # the profile's counters are the dynamic CFG: its nodes, its
        # weighted edges and its miss annotations
        app, profile, _ = pipeline
        assert len(profile.block_counts) <= len(app.program)
        assert sum(profile.block_counts.values()) == len(profile.block_ids)
        assert sum(profile.edge_counts.values()) == len(profile.block_ids) - 1


class TestConditionalHardwarePath:
    def test_runtime_suppression_happens(self, pipeline):
        app, profile, trace = pipeline
        result = build_ispy_plan(app.program, profile)
        if not result.report.contexts:
            pytest.skip("no conditional prefetches adopted at this scale")
        core = CoreSimulator(
            app.program,
            plan=result.plan,
            data_traffic=app.data_traffic(seed=2),
            track_exact_context=True,
        )
        stats = core.run(trace, warmup=WARMUP)
        assert stats.prefetch_instructions_executed > 0
        # conditional checks ran: suppressions or firings recorded
        total = (
            core.engine.true_positive_firings
            + core.engine.false_positive_firings
            + stats.prefetches_suppressed
        )
        assert total > 0

    def test_ideal_runner_matches_ideal_member(self, pipeline):
        app, _, trace = pipeline
        a = run(app, trace).ideal_bound()
        b = get_prefetcher("ideal").simulate(ProfileView(app.program), trace)
        # the member replays with no warmup here; compare rates
        assert a.l1i_misses == b.l1i_misses == 0
